(* The inspection commands explain the compile that `run` measures.

   usage:
     check_inspect.exe FINEPAR_CLI

   For every registry kernel, at 2 and 4 cores and on the dual-issue
   shared-cache machine at 4 cores, the first line of `report` must
   carry the parallel cycle count that `run` prints with the same
   flags: both take the profile-fed parallel job.  `report
   --format=chrome --via=store:DIR` must be a usage error (exit 124)
   that opens no store.  Exits 1 listing every disagreement. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline s)
    fmt

(* [cli args]'s stdout, or [None] on a non-zero exit. *)
let output cli args =
  let ic = Unix.open_process_args_in cli (Array.of_list (cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some out
  | _ -> None

(* The first integer of the first line starting with [prefix]. *)
let cycles_after prefix out =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix line then
        Scanf.sscanf_opt
          (String.sub line (String.length prefix)
             (String.length line - String.length prefix))
          " %d" Fun.id
      else None)
    (String.split_on_char '\n' out)

let agree cli name flags =
  let cycles cmd prefix =
    Option.bind (output cli ((cmd :: "-k" :: name :: flags))) (cycles_after prefix)
  in
  match (cycles "run" "parallel", cycles "report" ("kernel " ^ name ^ ":")) with
  | Some r, Some p when r = p -> ()
  | r, p ->
    let pp = function Some n -> string_of_int n | None -> "no cycles" in
    fail "%s %s: run measures %s, report shows %s" name
      (String.concat " " flags) (pp r) (pp p)

let chrome_via_refused cli =
  let store = "check-inspect-store" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "report"; "-k"; "lammps-3"; "--format=chrome";
         "--via=store:" ^ store |]
      Unix.stdin null null
  in
  Unix.close null;
  (match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 124 -> ()
  | Unix.WEXITED n -> fail "report --format=chrome --via: exit %d, not 124" n
  | _ -> fail "report --format=chrome --via: killed");
  if Sys.file_exists store then
    fail "report --format=chrome --via opened the store before refusing"

let () =
  let cli = Sys.argv.(1) in
  List.iter
    (fun (e : Finepar_kernels.Registry.entry) ->
      let name = e.Finepar_kernels.Registry.kernel.Finepar_ir.Kernel.name in
      List.iter (agree cli name)
        [
          [ "-c"; "2" ]; [ "-c"; "4" ];
          [ "-c"; "4"; "--issue-width=2"; "--comm=shared_cache" ];
        ])
    Finepar_kernels.Registry.all;
  chrome_via_refused cli;
  if !failures > 0 then exit 1

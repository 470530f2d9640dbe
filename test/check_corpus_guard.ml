(* A corpus with no reproducers is an error, not a pass.

   usage:
     check_corpus_guard.exe FINEPAR_CLI

   `fuzz --replay`, `fuzz --replay --via=store:DIR` and `autotune
   --fuzz-corpus` on a directory that does not exist must each exit 1,
   and none of them may open the store.  Exits 1 listing every command
   that did otherwise. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline s)
    fmt

let missing = "check-corpus-guard-no-such-dir"
let store = "check-corpus-guard-store"

let exits_1 cli args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null null
  in
  Unix.close null;
  let cmd = String.concat " " args in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 1 -> ()
  | Unix.WEXITED n -> fail "%s: exit %d, not 1" cmd n
  | _ -> fail "%s: killed" cmd

let () =
  let cli = Sys.argv.(1) in
  exits_1 cli [ "fuzz"; "--replay=" ^ missing ];
  exits_1 cli [ "fuzz"; "--replay=" ^ missing; "--via=store:" ^ store ];
  exits_1 cli
    [ "autotune"; "--scope=registry"; "-k"; "lammps-1"; "--generations=0";
      "--fuzz-corpus=" ^ missing ];
  if Sys.file_exists store then
    fail "fuzz --replay --via opened the store for an empty corpus";
  if !failures > 0 then exit 1

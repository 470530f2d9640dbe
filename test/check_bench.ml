(* The CI bench regression gate.

   usage:
     check_bench.exe BASELINE.json CURRENT.json
       [--speedup S]                  this runner's measured -j speedup
                                      (sequential seconds / parallel
                                      seconds); gated against
                                      meta.min_speedup when present
       [--markdown FILE]              append a job-summary table

   Both files are bench --json outputs ({"sections": {...}}); the
   baseline may carry an extra "meta" object (see bench/baseline.json).
   Every section number is a paper-accuracy result of a deterministic
   simulation, so the two "sections" objects must match exactly — same
   sections, same keys, same values.  Any drift means a semantic change
   to the compiler or simulator and fails the gate; a section or key on
   one side only means the baseline is stale.  Host time is measured by
   the end-to-end benchmark (benchmark/), not here; the one host number
   this gate reads is --speedup, which only a runner with at least -j
   cores can measure. *)

module J = Finepar_telemetry.Json

let failures : string list ref = ref []
let notes : string list ref = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match J.of_channel ic with
      | Ok v -> v
      | Error e ->
        Printf.eprintf "check_bench: %s: %s\n" path e;
        exit 2)

let obj_assoc = function J.Obj kvs -> kvs | _ -> []
let find key j = List.assoc_opt key (obj_assoc j)

let num = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let num_eq a b =
  (* Exact up to float noise: these are deterministic simulation results,
     so 1e-9 relative covers only representation round-trips. *)
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

(* Exact structural comparison of the paper-accuracy sections. *)
let rec compare_exact path (base : J.t) (cur : J.t) =
  match (base, cur) with
  | (J.Int _ | J.Float _), (J.Int _ | J.Float _) ->
    let a = Option.get (num base) and b = Option.get (num cur) in
    if not (num_eq a b) then fail "%s: baseline %.17g, current %.17g" path a b
  | J.String a, J.String b ->
    if not (String.equal a b) then fail "%s: baseline %S, current %S" path a b
  | J.Bool a, J.Bool b -> if a <> b then fail "%s: bool changed" path
  | J.Null, J.Null -> ()
  | J.List xs, J.List ys ->
    if List.length xs <> List.length ys then
      fail "%s: baseline has %d entries, current %d" path (List.length xs)
        (List.length ys)
    else
      List.iteri
        (fun i (x, y) -> compare_exact (Printf.sprintf "%s[%d]" path i) x y)
        (List.combine xs ys)
  | J.Obj xs, J.Obj ys ->
    List.iter
      (fun (k, x) ->
        match List.assoc_opt k ys with
        | None -> fail "%s.%s: missing from current run" path k
        | Some y -> compare_exact (path ^ "." ^ k) x y)
      xs;
    List.iter
      (fun (k, _) ->
        if not (List.mem_assoc k xs) then
          fail "%s.%s: not in baseline (refresh bench/baseline.json)" path k)
      ys
  | _ -> fail "%s: type changed" path

let markdown ~out ~cur ~speedup =
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      p "## Bench gate\n\n";
      (match speedup with
      | Some s -> p "Harness wall-clock speedup on this runner: **%.2fx**\n\n" s
      | None -> ());
      (match Option.bind (find "sections" cur) (find "fig12") with
      | Some fig12 ->
        p "| kernel | 2-core | 4-core |\n|---|---|---|\n";
        (match find "kernels" fig12 with
        | Some (J.List rows) ->
          List.iter
            (fun row ->
              match
                ( find "kernel" row,
                  Option.bind (find "speedup_2core" row) num,
                  Option.bind (find "speedup_4core" row) num )
              with
              | Some (J.String k), Some s2, Some s4 ->
                p "| %s | %.2f | %.2f |\n" k s2 s4
              | _ -> ())
            rows
        | _ -> ());
        (match
           ( Option.bind (find "average_2core" fig12) num,
             Option.bind (find "average_4core" fig12) num )
         with
        | Some a2, Some a4 ->
          p "| **average** | **%.2f** | **%.2f** |\n" a2 a4
        | _ -> ());
        p "\n(paper: 1.32 / 2.05 average)\n"
      | None -> ());
      (match Option.bind (find "sections" cur) (find "autotune") with
      | Some a ->
        p "\n### Autotune search (found optimum vs Section III-B heuristic)\n\n";
        p "| kernel | heuristic | best | gap | best configuration |\n";
        p "|---|---|---|---|---|\n";
        (match find "kernels" a with
        | Some (J.List rows) ->
          List.iter
            (fun row ->
              match
                ( find "name" row,
                  Option.bind (find "heuristic_cycles" row) num,
                  Option.bind (find "best_cycles" row) num,
                  find "best_config" row )
              with
              | Some (J.String k), Some h, Some b, Some (J.String cfg) ->
                p "| %s | %.0f | %.0f | %s | %s |\n" k h b
                  (match Option.bind (find "gap" row) num with
                  | Some g -> Printf.sprintf "%.2fx" g
                  | None -> "-")
                  cfg
              | _ -> ())
            rows
        | _ -> ())
      | None -> ());
      if !failures = [] then p "\nAll paper-accuracy numbers match the baseline.\n"
      else begin
        p "\n### Failures\n\n";
        List.iter (fun f -> p "- `%s`\n" f) (List.rev !failures)
      end)

let () =
  let rec parse files speedup md = function
    | [] -> (List.rev files, speedup, md)
    | "--speedup" :: v :: rest -> parse files (Some (float_of_string v)) md rest
    | "--markdown" :: v :: rest -> parse files speedup (Some v) rest
    | a :: rest -> parse (a :: files) speedup md rest
  in
  let files, speedup, md = parse [] None None (List.tl (Array.to_list Sys.argv)) in
  let base_path, cur_path =
    match files with
    | [ b; c ] -> (b, c)
    | _ ->
      prerr_endline "usage: check_bench BASELINE.json CURRENT.json [options]";
      exit 2
  in
  let base = load base_path and cur = load cur_path in
  let sections j = Option.value ~default:(J.Obj []) (find "sections" j) in
  compare_exact "sections" (sections base) (sections cur);
  let meta = Option.value ~default:(J.Obj []) (find "meta" base) in
  (match (speedup, Option.bind (find "min_speedup" meta) num) with
  | Some s, Some m ->
    if s < m then
      fail "parallel harness speedup %.2fx below the %.2fx gate" s m
    else note "parallel harness speedup %.2fx (gate: >= %.2fx)" s m
  | Some s, None -> note "parallel harness speedup %.2fx (no gate)" s
  | None, _ -> ());
  (match md with
  | Some out -> markdown ~out ~cur ~speedup
  | None -> ());
  List.iter (fun n -> Printf.printf "note: %s\n" n) (List.rev !notes);
  if !failures = [] then print_endline "check_bench: OK"
  else begin
    List.iter (fun f -> Printf.printf "FAIL: %s\n" f) (List.rev !failures);
    Printf.printf "check_bench: %d failure(s)\n" (List.length !failures);
    exit 1
  end

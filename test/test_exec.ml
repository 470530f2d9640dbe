(* Tests for the domain-parallel execution engine (lib/exec) and its
   determinism contract: results merged in task-index order, exceptions
   captured per task with the lowest-indexed one re-raised, nested maps
   rejected, and -j 1 observationally identical to -j N for the
   subsystems wired onto the pool (fuzz campaigns, experiments). *)

module Pool = Finepar_exec.Pool
module Json = Finepar_telemetry.Json

exception Boom of int

(* Uneven per-task work so parallel completion order differs from
   submission order; any merge-by-completion bug shows up as a
   misordered result list. *)
let spin i =
  let n = 1_000 * (1 + (i * 7919 mod 13)) in
  let acc = ref 0 in
  for k = 1 to n do
    acc := (!acc + k) mod 1_000_003
  done;
  (i, !acc)

let test_map_ordering () =
  let xs = List.init 400 Fun.id in
  let expected = List.map spin xs in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Alcotest.(check bool)
        (Printf.sprintf "map at %d domain(s) = sequential" domains)
        true
        (List.equal ( = ) expected (Pool.map pool ~f:spin xs)))
    [ 1; 2; 3; 4; 8 ]

let test_exception_lowest_index () =
  let pool = Pool.create ~domains:4 () in
  let ran = Atomic.make 0 in
  let f i =
    Atomic.incr ran;
    if i = 17 || i = 3 || i = 90 then raise (Boom i) else i
  in
  (match Pool.map pool ~f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i ->
    Alcotest.(check int) "lowest-indexed exception wins" 3 i);
  (* Every task still ran: a failure must not cancel sibling tasks,
     otherwise -j would change which side effects happen. *)
  Alcotest.(check int) "all tasks ran despite failures" 100 (Atomic.get ran);
  (* Same contract on the sequential path. *)
  let pool1 = Pool.create ~domains:1 () in
  let ran1 = ref 0 in
  let f1 i =
    incr ran1;
    if i >= 5 then raise (Boom i) else i
  in
  (match Pool.map pool1 ~f:f1 (List.init 20 Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "sequential: first raiser" 5 i);
  Alcotest.(check int) "sequential: all tasks ran" 20 !ran1

let test_nested_map_rejected () =
  let pool = Pool.create ~domains:4 () in
  let nested _ = Pool.map pool ~f:Fun.id [ 1; 2; 3 ] in
  (match Pool.map pool ~f:nested (List.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected Nested_map"
  | exception Pool.Nested_map -> ());
  (* A different pool used inside tasks of a busy pool is also a nested
     parallel region and is rejected the same way. *)
  let other = Pool.create ~domains:2 () in
  let nested_other _ = Pool.map other ~f:Fun.id [ 1 ] in
  (match Pool.map pool ~f:nested_other [ 0; 1 ] with
  | _ -> ()
  | exception Pool.Nested_map -> ());
  (* After rejection the pool is released and usable again. *)
  Alcotest.(check (list int))
    "pool usable after Nested_map" [ 0; 1; 2 ]
    (Pool.map pool ~f:Fun.id [ 0; 1; 2 ])

(* Self-scheduling: at two domains, task 0 spins until every other task
   has finished, which only happens if the other worker goes on to claim
   them all.  A scheduler that pins tasks to workers up front leaves
   some behind task 0 on its worker; the deadline turns that hang into
   a failure. *)
let test_dynamic_balance () =
  let n = 40 in
  let finished = Atomic.make 0 and timed_out = Atomic.make false in
  let f i =
    if i = 0 then begin
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get finished < n - 1 && not (Atomic.get timed_out) do
        if Unix.gettimeofday () > deadline then Atomic.set timed_out true;
        Domain.cpu_relax ()
      done
    end
    else Atomic.incr finished;
    i * i
  in
  let pool = Pool.create ~domains:2 () in
  Alcotest.(check (list int))
    "map = sequential result"
    (List.init n (fun i -> i * i))
    (Pool.map pool ~f (List.init n Fun.id));
  Alcotest.(check bool)
    "task 0 saw every other task finish" false (Atomic.get timed_out)

(* The end-to-end determinism contract on a real fan-out site: a fuzz
   campaign on a fixed seed produces the same summary (and JSON) at
   -j 1 and -j 4. *)
let test_fuzz_j1_equivalence () =
  let run domains =
    let pool = Pool.create ~domains () in
    Finepar_fuzz.Driver.run ~pool ~cases:60 ~seed:7 ()
  in
  let s1 = run 1 and s4 = run 4 in
  Alcotest.(check string)
    "fuzz summary JSON identical at -j1 and -j4"
    (Finepar_fuzz.Driver.summary_to_json s1)
    (Finepar_fuzz.Driver.summary_to_json s4);
  Alcotest.(check int) "cases_run" s1.cases_run s4.cases_run;
  Alcotest.(check int) "passed" s1.passed s4.passed

(* Same contract on the experiments layer: per-kernel rows computed in
   parallel must regroup to exactly the sequential result. *)
let test_experiments_j1_equivalence () =
  let pool = Pool.create ~domains:4 () in
  let seq = Finepar.Experiments.fig12 () in
  let par = Finepar.Experiments.fig12 ~pool () in
  Alcotest.(check bool) "fig12 rows identical under the pool" true (seq = par)

(* Pool execution statistics: task counts are exact, timing fields are
   consistent, the sequential degradation path is counted too, and the
   JSON rendering has exactly the documented keys. *)
let test_pool_stats () =
  Alcotest.(check bool)
    "default is at least one domain" true
    (Pool.domains (Pool.create ()) >= 1);
  let pool = Pool.create ~domains:4 () in
  let zero = Pool.stats pool in
  Alcotest.(check int) "fresh pool: no runs" 0 zero.Pool.runs;
  Alcotest.(check int) "fresh pool: no tasks" 0 zero.Pool.tasks;
  Alcotest.(check (float 0.0)) "fresh pool: imbalance 1.0" 1.0
    zero.Pool.imbalance;
  ignore (Pool.map pool ~f:spin (List.init 100 Fun.id));
  ignore (Pool.map pool ~f:spin (List.init 50 Fun.id));
  ignore (Pool.map pool ~f:spin []);
  let s = Pool.stats pool in
  Alcotest.(check int) "width recorded" 4 s.Pool.domains;
  Alcotest.(check int) "two runs (the empty map is not one)" 2 s.Pool.runs;
  Alcotest.(check int) "tasks = elements mapped" 150 s.Pool.tasks;
  Alcotest.(check bool) "busy time accumulates" true (s.Pool.busy_seconds > 0.);
  Alcotest.(check bool) "run wall clock recorded" true (s.Pool.run_seconds > 0.);
  Alcotest.(check bool) "idle time nonnegative" true (s.Pool.idle_seconds >= 0.);
  Alcotest.(check bool) "imbalance at least 1.0" true (s.Pool.imbalance >= 1.0);
  Alcotest.(check bool) "imbalance bounded by width" true
    (s.Pool.imbalance <= float_of_int s.Pool.domains +. 1e-9);
  (match Pool.stats_json s with
  | Json.Obj kvs ->
    Alcotest.(check (list string))
      "stats_json keys"
      [
        "domains"; "runs"; "run_seconds"; "tasks"; "busy_seconds";
        "idle_seconds"; "imbalance";
      ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "stats_json is not an object");
  (* The sequential path (one domain) still counts its work. *)
  let seq = Pool.create ~domains:1 () in
  ignore (Pool.map seq ~f:spin (List.init 30 Fun.id));
  let s1 = Pool.stats seq in
  Alcotest.(check int) "sequential: tasks counted" 30 s1.Pool.tasks;
  Alcotest.(check int) "sequential: one run" 1 s1.Pool.runs;
  Alcotest.(check (float 0.0)) "sequential: even by definition" 1.0
    s1.Pool.imbalance

(* The strict JSON parser backing the bench gate. *)
let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\ne\xc3\xa9");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Bool true; Json.Null; Json.Int 0 ]);
        ("o", Json.Obj [ ("nested", Json.Float 2.5e-3) ]);
      ]
  in
  (match Json.of_string (Json.to_string doc) with
  | Ok parsed ->
    Alcotest.(check string)
      "round-trip" (Json.to_string doc) (Json.to_string parsed)
  | Error e -> Alcotest.fail e);
  (match Json.of_string "3" with
  | Ok (Json.Int 3) -> ()
  | _ -> Alcotest.fail "plain integer literal parses as Int");
  (match Json.of_string "3.0" with
  | Ok (Json.Float _) -> ()
  | _ -> Alcotest.fail "fractional literal parses as Float");
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted invalid %S" bad))
    [ "{"; "[1,]"; "{\"a\":1} x"; "nul"; "\"unterminated"; "01"; "+1"; "" ]

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "nested map rejected" `Quick
            test_nested_map_rejected;
          Alcotest.test_case "dynamic balance" `Quick test_dynamic_balance;
          Alcotest.test_case "execution stats" `Quick test_pool_stats;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fuzz -j1 = -j4" `Quick test_fuzz_j1_equivalence;
          Alcotest.test_case "experiments -j1 = -j4" `Quick
            test_experiments_j1_equivalence;
        ] );
      ( "json",
        [ Alcotest.test_case "parser round-trip" `Quick test_json_roundtrip ] );
    ]

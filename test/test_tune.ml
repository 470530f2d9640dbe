(* Tests for the generational autotuning search (lib/tune) and the job
   evaluation it rides on:

   - tie-breaking follows the documented preference order (fewer
     cycles, then fewer cores, then the simpler config) and is stable;
   - the direct and store evaluators give identical measures (errors
     included), so Job.speedup and Job.autotune agree over both;
   - the search is byte-identical at -j1 and -j4, and cached vs. fresh
     through a store (with a 100% warm hit rate);
   - the search never returns a config worse than the Section III-B
     heuristic pick, and respects its budget/generation bounds. *)

module Compiler = Finepar.Compiler
module Job = Finepar.Job
module Registry = Finepar_kernels.Registry
module Pool = Finepar_exec.Pool
module Client = Finepar_service.Client
module Space = Finepar_tune.Space
module Search = Finepar_tune.Search
module Service_eval = Finepar_tune.Service_eval
module Engine = Finepar_machine.Engine
module J = Finepar_telemetry.Json

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "finepar-tune-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let engine = Engine.Compiled

let some_targets n =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take n (Search.registry_targets ())

let small_params =
  { Search.default_params with Search.generations = 2; budget = 12 }

(* ------------------------------------------------------------------ *)
(* Job evaluation and candidate selection.                              *)

let test_tie_break_order () =
  let base = Compiler.default_config ~cores:4 () in
  let cmp a b = Job.compare_candidates a b in
  (* Fewer cycles dominates everything. *)
  Alcotest.(check bool)
    "fewer cycles wins" true
    (cmp (10, { base with Compiler.cores = 8 }) (11, base) < 0);
  (* On a cycle tie: fewer cores first. *)
  Alcotest.(check bool)
    "fewer cores wins ties" true
    (cmp (10, { base with Compiler.cores = 2 }) (10, base) < 0);
  (* Then speculation off before on. *)
  Alcotest.(check bool)
    "speculation off wins ties" true
    (cmp (10, base) (10, { base with Compiler.speculation = true }) < 0);
  (* Then throughput off before on. *)
  Alcotest.(check bool)
    "throughput off wins ties" true
    (cmp (10, base) (10, { base with Compiler.throughput = true }) < 0);
  (* Then greedy before multi-pair. *)
  Alcotest.(check bool)
    "greedy wins ties" true
    (cmp (10, base) (10, { base with Compiler.algorithm = `Multi_pair }) < 0);
  (* Then lower transfer latency, then shorter queues. *)
  let with_lat l (c : Compiler.config) =
    {
      c with
      Compiler.machine =
        { c.Compiler.machine with Finepar_machine.Config.transfer_latency = l };
    }
  in
  let with_q q (c : Compiler.config) =
    {
      c with
      Compiler.machine =
        { c.Compiler.machine with Finepar_machine.Config.queue_len = q };
    }
  in
  Alcotest.(check bool)
    "lower latency wins ties" true
    (cmp (10, with_lat 1 base) (10, with_lat 20 base) < 0);
  Alcotest.(check bool)
    "shorter queue wins ties" true
    (cmp (10, with_q 4 base) (10, with_q 64 base) < 0);
  (* Identical configs compare equal — selection then keeps the earlier
     candidate, independent of evaluation interleaving. *)
  Alcotest.(check int) "identical configs tie" 0 (cmp (10, base) (10, base))

let test_evaluators_agree () =
  (* Direct and through a fresh store, the same jobs give the same
     measures, error rendering included: the server answers a miss with
     the same Job.compile and Job.run the direct evaluator calls. *)
  let direct = Job.direct ~engine () in
  Client.with_session (Client.Store (temp_dir ())) (fun session ->
      let via =
        Service_eval.evaluator ~exec:(Client.session_exec session) ~engine
      in
      let e = Option.get (Registry.find "lammps-1") in
      let par =
        Job.make ~workload:e.Registry.workload ~cores:4 e.Registry.kernel
      in
      let seq = { par with Job.sequential = true } in
      let counters =
        match direct [ seq ] with
        | [ Ok (_, counters) ] -> counters
        | _ -> Alcotest.fail "sequential run failed"
      in
      let first_array =
        (List.hd e.Registry.kernel.Finepar_ir.Kernel.arrays)
          .Finepar_ir.Kernel.a_name
      in
      let jobs =
        [
          seq;
          { par with Job.profile_counters = counters };
          { par with Job.placement = Job.Mod2 };
          { par with Job.workload = Job.Seeded 7 };
          { par with Job.workload = Job.Explicit [ (first_array, [||]) ] };
        ]
      in
      let measures = direct jobs in
      Alcotest.(check (list bool))
        "only the truncated workload errors"
        [ true; true; true; true; false ]
        (List.map Result.is_ok measures);
      let measure =
        Alcotest.(result (pair int (list (triple string int int))) string)
      in
      Alcotest.(check (list measure)) "store measures = direct measures"
        measures (via jobs);
      (* The two protocols over either evaluator. *)
      List.iter
        (fun name ->
          let e = Option.get (Registry.find name) in
          let job =
            Job.make ~workload:e.Registry.workload ~cores:4 e.Registry.kernel
          in
          Alcotest.(check (triple int int (float 0.)))
            (name ^ ": speedup") (Job.speedup direct job)
            (Job.speedup via job);
          Alcotest.(check (triple string int (list (pair string int))))
            (name ^ ": autotune") (Job.autotune direct job)
            (Job.autotune via job))
        [ "lammps-1"; "umt2k-6" ])

(* ------------------------------------------------------------------ *)
(* The search.                                                          *)

let render params rows =
  ( Fmt.str "%a" Search.pp_table rows,
    J.to_string (Search.to_json ~params rows) )

let test_search_j1_equals_j4 () =
  let targets = some_targets 4 in
  let run jobs =
    let pool = Pool.create ~domains:jobs () in
    render small_params
      (Search.run small_params (Search.direct ~pool ~engine ()) targets)
  in
  let table1, json1 = run 1 in
  let table4, json4 = run 4 in
  Alcotest.(check string) "table -j1 = -j4" table1 table4;
  Alcotest.(check string) "json -j1 = -j4" json1 json4

let test_search_cached_equals_fresh () =
  let targets = some_targets 3 in
  let dir = temp_dir () in
  let through_store () =
    Client.with_session (Client.Store dir) (fun session ->
        let rows =
          Search.run small_params
            (Service_eval.evaluator ~exec:(Client.session_exec session) ~engine)
            targets
        in
        (render small_params rows, Client.session_counters session))
  in
  let pool = Pool.create ~domains:2 () in
  let direct_out =
    render small_params
      (Search.run small_params (Search.direct ~pool ~engine ()) targets)
  in
  let fresh_out, fresh_counters = through_store () in
  let warm_out, warm_counters = through_store () in
  Alcotest.(check (pair string string))
    "direct = fresh via store" direct_out fresh_out;
  Alcotest.(check (pair string string))
    "fresh = warm via store" fresh_out warm_out;
  let get cs k = Option.value ~default:0 (List.assoc_opt k cs) in
  Alcotest.(check int) "fresh run hit nothing" 0 (get fresh_counters "hits");
  Alcotest.(check bool)
    "fresh run stored entries" true
    (get fresh_counters "misses" > 0);
  (* The warm pass through the same store is answered entirely from
     cache: a 100% hit rate (session counters are per-handle, so the
     warm handle's misses are 0). *)
  Alcotest.(check int) "warm run missed nothing" 0 (get warm_counters "misses");
  Alcotest.(check int)
    "warm run all hits"
    (get fresh_counters "misses")
    (get warm_counters "hits")

let test_search_never_worse_than_heuristic () =
  let pool = Pool.create ~domains:2 () in
  let rows =
    Search.run small_params
      (Search.direct ~pool ~engine ())
      (Search.registry_targets ())
  in
  Alcotest.(check int) "all 18 kernels tuned" 18 (List.length rows);
  List.iter
    (fun (r : Search.row) ->
      match (r.Search.r_heuristic, r.Search.r_best) with
      | Ok heuristic, Some best ->
        Alcotest.(check bool)
          (r.Search.r_target.Search.t_name ^ ": best <= heuristic pick")
          true
          (best.Search.b_cycles <= heuristic);
        Alcotest.(check bool)
          (r.Search.r_target.Search.t_name ^ ": gap >= 1")
          true
          (match Search.gap r with Some g -> g >= 1.0 | None -> false)
      | _ -> Alcotest.fail (r.Search.r_target.Search.t_name ^ ": no result"))
    rows

let test_search_budget_and_generation_bounds () =
  let targets = some_targets 3 in
  let pool = Pool.create ~domains:2 () in
  List.iter
    (fun (budget, generations) ->
      let params = { Search.default_params with Search.budget; generations } in
      let rows =
        Search.run params (Search.direct ~pool ~engine ()) targets
      in
      List.iter
        (fun (r : Search.row) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: evaluated %d <= budget %d"
               r.Search.r_target.Search.t_name r.Search.r_evaluated budget)
            true
            (r.Search.r_evaluated <= max 1 budget);
          Alcotest.(check bool)
            (Printf.sprintf "%s: rounds %d <= generations %d + 1"
               r.Search.r_target.Search.t_name r.Search.r_generations
               generations)
            true
            (r.Search.r_generations <= generations + 1);
          (* The heuristic pick survives any budget: it is generation
             0's first candidate. *)
          match r.Search.r_heuristic with
          | Ok _ -> ()
          | Error m ->
            Alcotest.fail
              (r.Search.r_target.Search.t_name ^ ": heuristic missing: " ^ m))
        rows;
      (* generations = 0 means the seed generation only: at most the
         six fixed candidates per kernel. *)
      if generations = 0 then
        List.iter
          (fun (r : Search.row) ->
            Alcotest.(check bool)
              (r.Search.r_target.Search.t_name ^ ": seed generation only")
              true
              (r.Search.r_evaluated <= 6))
          rows)
    [ (1, 3); (4, 0); (6, 0); (15, 1); (40, 3) ]

let test_space_key_dedupes_and_describe_is_stable () =
  let base = Compiler.default_config ~cores:4 () in
  Alcotest.(check string)
    "describe baseline" "4c greedy q20 lat5 i1 queues w:default"
    (Space.describe base);
  let ns = Space.neighbors base in
  Alcotest.(check bool) "neighbors exist" true (List.length ns > 10);
  (* No neighbor equals the origin, and keys distinguish all of them. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        ("neighbor differs: " ^ Space.describe n)
        false
        (String.equal (Space.key n) (Space.key base)))
    ns;
  let keys = List.sort_uniq compare (List.map Space.key ns) in
  Alcotest.(check int) "neighbor keys unique" (List.length ns)
    (List.length keys)

let () =
  Alcotest.run "tune"
    [
      ( "runner-fixes",
        [
          Alcotest.test_case "documented tie-break order" `Quick
            test_tie_break_order;
          Alcotest.test_case "direct and store evaluators agree" `Quick
            test_evaluators_agree;
        ] );
      ( "search",
        [
          Alcotest.test_case "-j1 equals -j4, byte for byte" `Quick
            test_search_j1_equals_j4;
          Alcotest.test_case "cached equals fresh through a store" `Quick
            test_search_cached_equals_fresh;
          Alcotest.test_case "never worse than the heuristic pick" `Quick
            test_search_never_worse_than_heuristic;
          Alcotest.test_case "budget and generation bounds hold" `Quick
            test_search_budget_and_generation_bounds;
          Alcotest.test_case "space keys dedupe, descriptions stable" `Quick
            test_space_key_dedupes_and_describe_is_stable;
        ] );
    ]

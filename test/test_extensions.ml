(* Tests of the extensions beyond the paper's measurements: SMT thread
   placement, the queue-count constraint, 8-core scaling, and the
   end-of-run protocol under those configurations.  Correctness is always
   the bit-exact check against the reference evaluator. *)

open Finepar_ir
open Finepar_kernels
open Finepar_machine

let compile4 ?(config = Finepar.Compiler.default_config ~cores:4 ()) k =
  Finepar.Compiler.compile config k

(* ------------------------------------------------------------------ *)
(* SMT placement.                                                      *)

let run_with_map (e : Registry.entry) map_of_threads =
  let c = compile4 e.Registry.kernel in
  let threads = c.Finepar.Compiler.stats.Finepar.Compiler.n_partitions in
  let core_map = map_of_threads threads in
  Finepar.Runner.run ~workload:e.Registry.workload ~core_map c

let test_smt_bit_exact () =
  (* Every placement must produce identical results; Runner.run raises
     Mismatch otherwise. *)
  List.iter
    (fun (e : Registry.entry) ->
      ignore (run_with_map e (fun t -> Array.make t 0));
      ignore (run_with_map e (fun t -> Array.init t (fun i -> i mod 2)));
      ignore (run_with_map e (fun t -> Array.init t (fun i -> i / 2))))
    Registry.all

let test_smt_shares_issue_slot () =
  (* All threads on one physical core can never beat the same code spread
     over four cores by more than measurement noise. *)
  let e = Option.get (Registry.find "irs-1") in
  let one = (run_with_map e (fun t -> Array.make t 0)).Finepar.Runner.cycles in
  let four = (run_with_map e (fun t -> Array.init t Fun.id)).Finepar.Runner.cycles in
  Alcotest.(check bool) "shared issue slot costs cycles" true (one > four)

let test_smt_hides_latency () =
  (* But SMT on one core still beats one thread on one core for kernels
     with long-latency chains: the threads fill each other's stalls. *)
  let e = Option.get (Registry.find "lammps-5") in
  let seq = Finepar.Compiler.compile_sequential e.Registry.kernel in
  let seq_cycles =
    (Finepar.Runner.run ~workload:e.Registry.workload seq).Finepar.Runner.cycles
  in
  let smt = (run_with_map e (fun t -> Array.make t 0)).Finepar.Runner.cycles in
  Alcotest.(check bool) "4 threads on 1 core beat 1 thread" true
    (smt < seq_cycles)

let test_smt_bad_map_rejected () =
  let e = Option.get (Registry.find "sphot-1") in
  let c = compile4 e.Registry.kernel in
  Alcotest.(check bool) "wrong core_map length rejected" true
    (try
       ignore
         (Sim.create ~core_map:[| 0 |] ~config:Config.default
            ~initial:e.Registry.workload
            c.Finepar.Compiler.code.Finepar_codegen.Lower.program);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Queue-count constraint.                                             *)

let queue_pairs_of (c : Finepar.Compiler.compiled) =
  c.Finepar.Compiler.stats.Finepar.Compiler.queue_pairs_static

let test_queue_limit_respected () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun limit ->
          let config =
            {
              (Finepar.Compiler.default_config ~cores:4 ()) with
              Finepar.Compiler.max_queue_pairs = Some limit;
            }
          in
          let c = compile4 ~config e.Registry.kernel in
          Alcotest.(check bool)
            (Printf.sprintf "%s uses <= %d pairs"
               e.Registry.kernel.Kernel.name limit)
            true
            (queue_pairs_of c <= limit);
          (* And still runs bit-exact. *)
          ignore (Finepar.Runner.run ~workload:e.Registry.workload c))
        [ 6; 2; 0 ])
    Registry.all

let test_queue_limit_zero () =
  (* With no queues allowed, all communicating partitions collapse. *)
  let e = Option.get (Registry.find "lammps-3") in
  let config =
    {
      (Finepar.Compiler.default_config ~cores:4 ()) with
      Finepar.Compiler.max_queue_pairs = Some 0;
    }
  in
  let c = compile4 ~config e.Registry.kernel in
  Alcotest.(check int) "no cross-partition values" 0 (queue_pairs_of c)

(* ------------------------------------------------------------------ *)
(* Autotuning (Section III-I: multiple code versions + feedback).      *)

module Search = Finepar_tune.Search

(* The search's generation 0 on one registry kernel: the six classic
   code versions. *)
let autotune name =
  let target =
    List.find
      (fun (t : Search.target) -> String.equal t.Search.t_name name)
      (Search.registry_targets ())
  in
  List.hd
    (Search.run
       { Search.default_params with Search.generations = 0 }
       (Search.direct ~engine:Finepar_machine.Engine.default ())
       [ target ])

let test_autotune_picks_minimum () =
  let row = autotune "lammps-1" in
  Alcotest.(check int) "six candidates" 6 row.Search.r_evaluated;
  Alcotest.(check int) "one generation" 1 row.Search.r_generations;
  match (row.Search.r_best, row.Search.r_heuristic) with
  | Some best, Ok heuristic ->
    Alcotest.(check bool)
      "best <= heuristic" true
      (best.Search.b_cycles <= heuristic)
  | _ -> Alcotest.fail "no best or no heuristic measure"

let test_autotune_slowdown_kernel_goes_sequential () =
  (* umt2k-6 loses from fine-grained parallelization; the tuner must keep
     the sequential version. *)
  let row = autotune "umt2k-6" in
  Alcotest.(check (option string)) "sequential wins" (Some "sequential")
    (Option.map (fun (b : Search.best) -> b.Search.b_desc) row.Search.r_best)

(* ------------------------------------------------------------------ *)
(* Scaling.                                                            *)

let test_eight_cores_bit_exact () =
  List.iter
    (fun (e : Registry.entry) ->
      let config = Finepar.Compiler.default_config ~cores:8 () in
      let c = Finepar.Compiler.compile config e.Registry.kernel in
      ignore (Finepar.Runner.run ~workload:e.Registry.workload c))
    Registry.all

let test_partitions_monotone () =
  let e = Option.get (Registry.find "irs-1") in
  let parts cores =
    (compile4 ~config:(Finepar.Compiler.default_config ~cores ())
       e.Registry.kernel)
      .Finepar.Compiler.stats
      .Finepar.Compiler.n_partitions
  in
  Alcotest.(check bool) "more cores, at least as many partitions" true
    (parts 2 <= parts 4 && parts 4 <= parts 8)

let () =
  Alcotest.run "extensions"
    [
      ( "smt",
        [
          Alcotest.test_case "all placements bit-exact" `Slow
            test_smt_bit_exact;
          Alcotest.test_case "shared issue slot" `Quick
            test_smt_shares_issue_slot;
          Alcotest.test_case "latency hiding" `Quick test_smt_hides_latency;
          Alcotest.test_case "bad map rejected" `Quick
            test_smt_bad_map_rejected;
        ] );
      ( "queue limit",
        [
          Alcotest.test_case "limit respected + bit-exact" `Slow
            test_queue_limit_respected;
          Alcotest.test_case "zero limit collapses" `Quick
            test_queue_limit_zero;
        ] );
      ( "autotune",
        [
          Alcotest.test_case "picks the minimum" `Quick
            test_autotune_picks_minimum;
          Alcotest.test_case "slowdown kernel stays sequential" `Quick
            test_autotune_slowdown_kernel_goes_sequential;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "8 cores bit-exact" `Slow
            test_eight_cores_bit_exact;
          Alcotest.test_case "partitions monotone" `Quick
            test_partitions_monotone;
        ] );
    ]

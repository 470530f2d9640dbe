(* End-to-end tests: compile kernels, simulate them, and check the outputs
   bit-for-bit against the reference evaluator (Runner.run raises Mismatch
   on any difference, so "it returns" is the correctness check).

   Covers: all 18 evaluation kernels at 1/2/4 cores, configuration
   variants (speculation, throughput heuristic, multi-pair merge, latency,
   short queues, tiny caches), edge cases (zero-trip loops, single
   iteration), and a qcheck property over randomly generated kernels. *)

open Finepar_ir
open Builder
open Finepar_kernels

(* The paper's protocol: a sequential profiling run, then the parallel
   compile fed its counters (Runner.run checks both runs). *)
let speedup ?machine ?config ~workload ~cores k =
  Finepar.Job.speedup
    (Finepar.Job.direct ~engine:Finepar_machine.Engine.default ())
    (Finepar.Job.make ?machine ?config ~workload ~cores k)

let speedup_of ?config ?machine k ~cores =
  let workload = Workload.default k in
  let _, par, s = speedup ?machine ?config ~workload ~cores k in
  Alcotest.(check bool) "ran" true (par > 0);
  s

(* ------------------------------------------------------------------ *)
(* The 18 evaluation kernels.                                          *)

let registry_case (e : Registry.entry) =
  let name = e.Registry.kernel.Kernel.name in
  Alcotest.test_case name `Quick (fun () ->
      List.iter
        (fun cores ->
          let _, par, _ =
            speedup ~workload:e.Registry.workload ~cores
              e.Registry.kernel
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %d-core bit-exact" name cores)
            true
            (par > 0))
        [ 1; 2; 3; 4 ])

let variant_case name mk_config =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun (e : Registry.entry) ->
          let config, machine = mk_config () in
          let _, par, _ =
            speedup ?config ?machine
              ~workload:e.Registry.workload ~cores:4 e.Registry.kernel
          in
          Alcotest.(check bool)
            (e.Registry.kernel.Kernel.name ^ " bit-exact under " ^ name)
            true
            (par > 0))
        Registry.all)

let with_config f () = (Some (f (Finepar.Compiler.default_config ~cores:4 ())), None)
let with_machine m () = (None, Some m)

let variant_cases =
  [
    variant_case "speculation" (with_config (fun c ->
        { c with Finepar.Compiler.speculation = true }));
    variant_case "throughput heuristic" (with_config (fun c ->
        { c with Finepar.Compiler.throughput = true }));
    variant_case "multi-pair merge" (with_config (fun c ->
        { c with Finepar.Compiler.algorithm = `Multi_pair }));
    variant_case "finest fibers" (with_config (fun c ->
        { c with Finepar.Compiler.max_height = 1 }));
    variant_case "coarse fibers" (with_config (fun c ->
        { c with Finepar.Compiler.max_height = 5 }));
    variant_case "latency 50"
      (with_machine
         Finepar_machine.Config.(with_transfer_latency 50 default));
    variant_case "short queues"
      (with_machine
         { Finepar_machine.Config.default with
           Finepar_machine.Config.queue_len = 2 });
    variant_case "tiny caches"
      (with_machine
         { Finepar_machine.Config.default with
           Finepar_machine.Config.l1_bytes = 512; l2_bytes = 4096 });
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases.                                                         *)

let edge_kernel ~lo ~hi =
  kernel ~name:"edge" ~index:"i" ~lo ~hi
    ~arrays:[ farr "a" 64; farr "out" 64 ]
    ~scalars:[ fscalar ~init:3.0 "s" ]
    ~live_out:[ "s" ]
    [
      set "x" (ld "a" (v "i") *: f 2.0);
      set "s" (v "s" +: v "x");
      store "out" (v "i") (v "x" -: v "s");
    ]

let test_zero_trip () =
  (* The loop body never runs: live-outs must still be the initial values
     on every core count. *)
  List.iter
    (fun cores -> ignore (speedup_of (edge_kernel ~lo:5 ~hi:5) ~cores))
    [ 1; 2; 4 ]

let test_single_iteration () =
  List.iter
    (fun cores -> ignore (speedup_of (edge_kernel ~lo:7 ~hi:8) ~cores))
    [ 1; 2; 4 ]

let test_nonzero_lower_bound () =
  List.iter
    (fun cores -> ignore (speedup_of (edge_kernel ~lo:17 ~hi:61) ~cores))
    [ 1; 2; 4 ]

let test_more_cores_than_fibers () =
  let k =
    kernel ~name:"tiny" ~index:"i" ~lo:0 ~hi:16
      ~arrays:[ farr "a" 16; farr "out" 16 ]
      ~scalars:[]
      [ store "out" (v "i") (ld "a" (v "i") *: f 2.0) ]
  in
  ignore (speedup_of k ~cores:4)

let test_int_kernel () =
  let k =
    kernel ~name:"ints" ~index:"i" ~lo:0 ~hi:32
      ~arrays:[ iarr "a" 32; iarr "out" 32 ]
      ~scalars:[ iscalar ~init:3 "m"; iscalar "total" ]
      ~live_out:[ "total" ]
      [
        set "x" ((ld "a" (v "i") *: v "m") %: i 17);
        set "y" (Expr.Binop (Types.Xor, v "x", i 0b1010));
        set "total" (v "total" +: v "y");
        store "out" (v "i") (Expr.Binop (Types.Shl, v "y", i 2));
      ]
  in
  List.iter (fun cores -> ignore (speedup_of k ~cores)) [ 1; 2; 4 ]

let test_deep_conditionals () =
  let k =
    kernel ~name:"nest" ~index:"i" ~lo:0 ~hi:40
      ~arrays:[ farr "a" 40; farr "o1" 40; farr "o2" 40; farr "o3" 40 ]
      ~scalars:[ fscalar ~init:0.7 "t1"; fscalar ~init:1.3 "t2" ]
      [
        set "x" (ld "a" (v "i") *: f 2.0);
        set "c1" (v "x" >: v "t1");
        if_ (v "c1")
          [
            store "o1" (v "i") (v "x");
            set "c2" (v "x" >: v "t2");
            if_ (v "c2")
              [ store "o2" (v "i") (v "x" *: f 0.5) ]
              [ store "o2" (v "i") (f 0.0) ];
          ]
          [ store "o3" (v "i") (neg (v "x")) ];
      ]
  in
  List.iter (fun cores -> ignore (speedup_of k ~cores)) [ 1; 2; 4 ]

let test_many_transfers_narrow_queues () =
  (* Dozens of cross-core values per iteration against 2-slot queues:
     exercises the full-queue back-pressure path end to end. *)
  let stmts =
    List.concat_map
      (fun j ->
        let x = Printf.sprintf "x%d" j in
        [
          set x (ld "a" (v "i") *: f (1.0 +. (0.1 *. float_of_int j)));
          store (Printf.sprintf "o%d" j) (v "i") (v x +: f 0.5);
        ])
      [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let arrays =
    farr "a" 32
    :: List.map (fun j -> farr (Printf.sprintf "o%d" j) 32) [ 0; 1; 2; 3; 4; 5; 6; 7 ]
  in
  let k =
    kernel ~name:"wide" ~index:"i" ~lo:0 ~hi:32 ~arrays ~scalars:[] stmts
  in
  let machine =
    { Finepar_machine.Config.default with Finepar_machine.Config.queue_len = 2 }
  in
  List.iter (fun cores -> ignore (speedup_of ~machine k ~cores)) [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Aggregate expectations (shape checks, deliberately loose).          *)

let test_average_speedups () =
  let rows = Finepar.Experiments.fig12 () in
  let a2, a4 = Finepar.Experiments.fig12_averages rows in
  Alcotest.(check bool) "2-core average in the paper's band" true
    (a2 > 1.1 && a2 < 1.7);
  Alcotest.(check bool) "4-core average in the paper's band" true
    (a4 > 1.6 && a4 < 2.4);
  Alcotest.(check bool) "4 cores beat 2 cores on average" true (a4 > a2)

(* A Table III row describes one compile: the profile-fed 4-core
   compile whose run gives its speedup, not a second compile without
   feedback. *)
let test_table3_reports_measured_compile () =
  let module E = Finepar.Experiments in
  let module C = Finepar.Compiler in
  let module Job = Finepar.Job in
  let evaluator = Job.direct ~engine:Finepar_machine.Engine.default () in
  List.iter2
    (fun (r : E.table3_row) (e : Registry.entry) ->
      let job =
        Job.make ~workload:e.Registry.workload ~cores:4 e.Registry.kernel
      in
      let _, profile_counters = Job.profile evaluator job in
      let st = (Job.compile { job with Job.profile_counters }).C.stats in
      let _, _, s = Job.speedup evaluator job in
      let name = r.E.t3_name in
      Alcotest.(check string) "row order" e.Registry.kernel.Kernel.name name;
      Alcotest.(check int) (name ^ " fibers") st.C.initial_fibers r.E.fibers;
      Alcotest.(check int) (name ^ " deps") st.C.data_deps r.E.deps;
      Alcotest.(check (float 0.)) (name ^ " balance") st.C.load_balance
        r.E.balance;
      Alcotest.(check int) (name ^ " com_ops") st.C.com_ops r.E.com_ops;
      Alcotest.(check int) (name ^ " queues") st.C.queue_pairs_static
        r.E.queues;
      Alcotest.(check (float 0.)) (name ^ " speedup") s r.E.t3_speedup)
    (E.table3 ()) Registry.all

let test_umt2k6_slows_down () =
  let e = Option.get (Registry.find "umt2k-6") in
  let _, _, s =
    speedup ~workload:e.Registry.workload ~cores:4
      e.Registry.kernel
  in
  Alcotest.(check bool) "umt2k-6 does not speed up" true (s <= 1.0)

let test_latency_degrades () =
  let avg latency =
    let machine =
      Finepar_machine.Config.(with_transfer_latency latency default)
    in
    let speeds =
      List.map
        (fun (e : Registry.entry) ->
          let _, _, s =
            speedup ~machine ~workload:e.Registry.workload
              ~cores:4 e.Registry.kernel
          in
          s)
        Registry.all
    in
    List.fold_left ( +. ) 0.0 speeds /. 18.0
  in
  let a5 = avg 5 and a50 = avg 50 in
  Alcotest.(check bool) "higher latency, lower average speedup" true
    (a50 < a5 -. 0.1)

(* ------------------------------------------------------------------ *)
(* qcheck: random kernels run bit-exact on every core count.           *)

(* Kernels come from the richer lib/fuzz generator (int and float
   arithmetic, nested conditionals, recurrences, indirect addressing,
   variable trip counts); QCheck supplies and shrinks only the seed. *)
let gen_kernel =
  QCheck.Gen.map
    (fun seed -> Finepar_fuzz.Gen.gen_kernel (Finepar_fuzz.Rng.create seed))
    (QCheck.Gen.int_bound 1_000_000)

let arbitrary_kernel =
  QCheck.make gen_kernel ~print:(Fmt.to_to_string Kernel.pp)

let prop_random_kernels_bit_exact =
  QCheck.Test.make ~count:120 ~name:"random kernels simulate bit-exact"
    arbitrary_kernel (fun k ->
      let workload = Workload.default k in
      List.for_all
        (fun cores ->
          let c =
            Finepar.Compiler.compile (Finepar.Compiler.default_config ~cores ()) k
          in
          (* Runner.run raises Mismatch on any deviation. *)
          ignore (Finepar.Runner.run ~workload c);
          true)
        [ 1; 2; 4 ])

let prop_random_kernels_speculated =
  QCheck.Test.make ~count:60
    ~name:"random kernels with speculation simulate bit-exact"
    arbitrary_kernel (fun k ->
      let workload = Workload.default k in
      let config =
        {
          (Finepar.Compiler.default_config ~cores:4 ()) with
          Finepar.Compiler.speculation = true;
        }
      in
      ignore (Finepar.Runner.run ~workload (Finepar.Compiler.compile config k));
      true)

let () =
  Alcotest.run "e2e"
    [
      ("kernels", List.map registry_case Registry.all);
      ("variants", variant_cases);
      ( "edge cases",
        [
          Alcotest.test_case "zero-trip loop" `Quick test_zero_trip;
          Alcotest.test_case "single iteration" `Quick test_single_iteration;
          Alcotest.test_case "nonzero lower bound" `Quick
            test_nonzero_lower_bound;
          Alcotest.test_case "more cores than fibers" `Quick
            test_more_cores_than_fibers;
          Alcotest.test_case "integer kernel" `Quick test_int_kernel;
          Alcotest.test_case "nested conditionals" `Quick
            test_deep_conditionals;
          Alcotest.test_case "narrow queues back-pressure" `Quick
            test_many_transfers_narrow_queues;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "average speedups in band" `Slow
            test_average_speedups;
          Alcotest.test_case "table3 reports the measured compile" `Quick
            test_table3_reports_measured_compile;
          Alcotest.test_case "umt2k-6 slows down" `Quick
            test_umt2k6_slows_down;
          Alcotest.test_case "latency degrades speedup" `Slow
            test_latency_degrades;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_kernels_bit_exact; prop_random_kernels_speculated ] );
    ]

(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, printing measured values side by side with the
   published ones, then runs Bechamel wall-clock benchmarks of the
   compiler and simulator themselves.

   Sections (select with a command-line argument prefix, default: all):
     table1 table2 table3 fig11 fig12 fig13 fig14
     ablation_throughput ablation_multipair ablation_comm
     ablation_issue_width ablation_overhead ablation_queue
     characterization engines service autotune wallclock

   --json=FILE additionally writes the measured numbers of the sections
   that ran as machine-readable JSON (for tracking runs over time; the
   CI bench gate diffs it against bench/baseline.json).

   -j N (or --jobs=N, or the FINEPAR_DOMAINS environment variable) sets
   the domain-pool width used for the per-kernel fan-outs inside each
   section; results are merged by task index, so the output is
   byte-identical at every -j.  -j 1 is fully sequential. *)

open Finepar
module J = Finepar_telemetry.Json
module Pool = Finepar_exec.Pool

(* Everything a section needs: the domain pool for its kernel fan-outs
   and the accumulator for machine-readable copies of the printed
   numbers.  Passing it explicitly (rather than a global ref) keeps the
   accumulation task-local and in section order. *)
type ctx = { pool : Pool.t option; mutable collected : (string * J.t) list }

let collect ctx name v = ctx.collected <- (name, v) :: ctx.collected

let rule () = print_endline (String.make 78 '-')

let section name title =
  rule ();
  Fmt.pr "== %s: %s@." name title;
  rule ()

let table1 _ctx =
  section "table1" "kernel inventory (paper Table I)";
  Fmt.pr "%-10s %-52s %6s %5s %5s@." "kernel" "location in benchmark" "%time"
    "ops" "trip";
  List.iter
    (fun (r : Experiments.table1_row) ->
      Fmt.pr "%-10s %-52s %6.1f %5d %5d@." r.Experiments.t1_name
        r.Experiments.t1_location r.Experiments.t1_pct
        r.Experiments.t1_measured_ops r.Experiments.t1_trip)
    (Experiments.table1 ())

let fig12 ctx =
  section "fig12" "speedup of fine-grained parallel code (paper Fig. 12)";
  Fmt.pr "%-10s %8s %8s@." "kernel" "2-core" "4-core";
  let rows = Experiments.fig12 ?pool:ctx.pool () in
  List.iter
    (fun (r : Experiments.fig12_row) ->
      Fmt.pr "%-10s %8.2f %8.2f@." r.Experiments.f12_name r.Experiments.s2
        r.Experiments.s4)
    rows;
  let a2, a4 = Experiments.fig12_averages rows in
  Fmt.pr "%-10s %8.2f %8.2f   (paper: 1.32 / 2.05)@." "average" a2 a4;
  collect ctx "fig12"
    (J.Obj
       [
         ( "kernels",
           J.List
             (List.map
                (fun (r : Experiments.fig12_row) ->
                  J.Obj
                    [
                      ("kernel", J.String r.Experiments.f12_name);
                      ("speedup_2core", J.Float r.Experiments.s2);
                      ("speedup_4core", J.Float r.Experiments.s4);
                    ])
                rows) );
         ("average_2core", J.Float a2);
         ("average_4core", J.Float a4);
       ]);
  rows

let table2 ctx rows =
  section "table2" "expected whole-application speedups (paper Table II)";
  Fmt.pr "%-10s %8s %8s %10s %10s@." "app" "2-core" "4-core" "paper-2c"
    "paper-4c";
  let t2 = Experiments.table2 ?pool:ctx.pool ~fig12_rows:rows () in
  List.iter
    (fun (r : Experiments.table2_row) ->
      Fmt.pr "%-10s %8.2f %8.2f %10.2f %10.2f@." r.Experiments.t2_app
        r.Experiments.t2_s2 r.Experiments.t2_s4 r.Experiments.t2_paper_s2
        r.Experiments.t2_paper_s4)
    t2;
  collect ctx "table2"
    (J.List
       (List.map
          (fun (r : Experiments.table2_row) ->
            J.Obj
              [
                ("app", J.String r.Experiments.t2_app);
                ("speedup_2core", J.Float r.Experiments.t2_s2);
                ("speedup_4core", J.Float r.Experiments.t2_s4);
              ])
          t2))

let table3 ctx =
  section "table3" "per-kernel characteristics at 4 cores (paper Table III)";
  Fmt.pr "%-10s | %-36s | %s@." "" "measured" "paper";
  Fmt.pr "%-10s | %5s %5s %7s %4s %3s %5s | %5s %5s %7s %4s %3s %5s@." "kernel"
    "fib" "deps" "balance" "com" "qs" "spdup" "fib" "deps" "balance" "com"
    "qs" "spdup";
  let t3 = Experiments.table3 ?pool:ctx.pool () in
  List.iter
    (fun (r : Experiments.table3_row) ->
      let p = r.Experiments.paper in
      Fmt.pr
        "%-10s | %5d %5d %7.2f %4d %3d %5.2f | %5d %5d %7.2f %4d %3d %5.2f@."
        r.Experiments.t3_name r.Experiments.fibers r.Experiments.deps
        r.Experiments.balance r.Experiments.com_ops r.Experiments.queues
        r.Experiments.t3_speedup p.Finepar_kernels.Registry.p_fibers
        p.Finepar_kernels.Registry.p_deps p.Finepar_kernels.Registry.p_balance
        p.Finepar_kernels.Registry.p_com_ops
        p.Finepar_kernels.Registry.p_queues
        p.Finepar_kernels.Registry.p_speedup4)
    t3;
  collect ctx "table3"
    (J.List
       (List.map
          (fun (r : Experiments.table3_row) ->
            J.Obj
              [
                ("kernel", J.String r.Experiments.t3_name);
                ("fibers", J.Int r.Experiments.fibers);
                ("deps", J.Int r.Experiments.deps);
                ("balance", J.Float r.Experiments.balance);
                ("com_ops", J.Int r.Experiments.com_ops);
                ("queues", J.Int r.Experiments.queues);
                ("speedup_4core", J.Float r.Experiments.t3_speedup);
              ])
          t3))

let fig11 _ctx =
  section "fig11" "queue transfer-latency semantics (paper Fig. 11)";
  let latency, pairs = Experiments.fig11_demo () in
  List.iteri
    (fun i (enq, deq) ->
      let kind =
        if deq <= enq + latency then "early dequeue: stalled until transfer"
        else "late dequeue: no stall"
      in
      Fmt.pr "transfer %d: enqueue issued @%d, dequeue completed @%d  [%s]@."
        (i + 1) enq deq kind)
    pairs;
  Fmt.pr "(transfer latency: %d cycles)@." latency

let fig13 ctx =
  section "fig13" "degradation with queue transfer latency (paper Fig. 13)";
  let points = Experiments.fig13 ?pool:ctx.pool () in
  Fmt.pr "%-10s" "kernel";
  List.iter
    (fun (p : Experiments.fig13_point) ->
      Fmt.pr " %7s" (Printf.sprintf "lat=%d" p.Experiments.latency))
    points;
  Fmt.pr "@.";
  List.iteri
    (fun i (name, _) ->
      Fmt.pr "%-10s" name;
      List.iter
        (fun (p : Experiments.fig13_point) ->
          Fmt.pr " %7.2f" (snd (List.nth p.Experiments.per_kernel i)))
        points;
      Fmt.pr "@.")
    (List.hd points).Experiments.per_kernel;
  Fmt.pr "%-10s" "average";
  List.iter
    (fun (p : Experiments.fig13_point) -> Fmt.pr " %7.2f" p.Experiments.f13_avg)
    points;
  Fmt.pr "   (paper avg: 2.05 / 1.85 / 1.36 / ~1.0)@.";
  Fmt.pr "%-10s" "none<=1.0";
  List.iter
    (fun (p : Experiments.fig13_point) ->
      Fmt.pr " %7d" p.Experiments.no_speedup)
    points;
  Fmt.pr "@.";
  collect ctx "fig13"
    (J.List
       (List.map
          (fun (p : Experiments.fig13_point) ->
            J.Obj
              [
                ("latency", J.Int p.Experiments.latency);
                ("average_speedup", J.Float p.Experiments.f13_avg);
                ("kernels_without_speedup", J.Int p.Experiments.no_speedup);
              ])
          points))

let fig14 ctx =
  section "fig14"
    "control-flow speculation (paper Fig. 14; directives keep the better \
     version, Section III-I)";
  Fmt.pr "%-10s %8s %10s %8s %5s@." "kernel" "base" "speculate" "chosen" "ifs";
  let rows = Experiments.fig14 ?pool:ctx.pool () in
  List.iter
    (fun (r : Experiments.fig14_row) ->
      Fmt.pr "%-10s %8.2f %10.2f %8.2f %5d%s@." r.Experiments.f14_name
        r.Experiments.base r.Experiments.speculated r.Experiments.chosen
        r.Experiments.converted_ifs
        (if r.Experiments.speculated > r.Experiments.base *. 1.02 then "  (+)"
         else ""))
    rows;
  let avg f = Experiments.mean (List.map f rows) in
  let improved =
    List.length
      (List.filter
         (fun (r : Experiments.fig14_row) ->
           r.Experiments.speculated > r.Experiments.base *. 1.02)
         rows)
  in
  Fmt.pr
    "%-10s %8.2f %10s %8.2f   improved: %d kernels (paper: 2.05 -> 2.33, 8 \
     kernels)@."
    "average"
    (avg (fun r -> r.Experiments.base))
    ""
    (avg (fun r -> r.Experiments.chosen))
    improved;
  collect ctx "fig14"
    (J.Obj
       [
         ( "kernels",
           J.List
             (List.map
                (fun (r : Experiments.fig14_row) ->
                  J.Obj
                    [
                      ("kernel", J.String r.Experiments.f14_name);
                      ("base", J.Float r.Experiments.base);
                      ("speculated", J.Float r.Experiments.speculated);
                      ("chosen", J.Float r.Experiments.chosen);
                      ("converted_ifs", J.Int r.Experiments.converted_ifs);
                    ])
                rows) );
         ("average_base", J.Float (avg (fun r -> r.Experiments.base)));
         ("average_chosen", J.Float (avg (fun r -> r.Experiments.chosen)));
         ("improved", J.Int improved);
       ])

let ablation name title rows ~paper_note =
  section name title;
  Fmt.pr "%-10s %8s %9s@." "kernel" "base" "variant";
  List.iter
    (fun (r : Experiments.ablation_row) ->
      let tag =
        if r.Experiments.ab_variant > r.Experiments.ab_base *. 1.02 then "  (+)"
        else if r.Experiments.ab_variant < r.Experiments.ab_base *. 0.98 then
          "  (-)"
        else ""
      in
      Fmt.pr "%-10s %8.2f %9.2f%s@." r.Experiments.ab_name
        r.Experiments.ab_base r.Experiments.ab_variant tag)
    rows;
  let avg f = Experiments.mean (List.map f rows) in
  let up =
    List.length
      (List.filter
         (fun (r : Experiments.ablation_row) ->
           r.Experiments.ab_variant > r.Experiments.ab_base *. 1.02)
         rows)
  and down =
    List.length
      (List.filter
         (fun (r : Experiments.ablation_row) ->
           r.Experiments.ab_variant < r.Experiments.ab_base *. 0.98)
         rows)
  in
  Fmt.pr "average %.2f -> %.2f; %d improved, %d degraded.  %s@."
    (avg (fun r -> r.Experiments.ab_base))
    (avg (fun r -> r.Experiments.ab_variant))
    up down paper_note

let ablation_throughput ctx =
  ablation "ablation_throughput"
    "throughput heuristic: unidirectional partitions only (Section III-B)"
    (Experiments.throughput_ablation ?pool:ctx.pool ())
    ~paper_note:"(paper: 3 improved, 6 degraded, ~11% average slowdown)"

let ablation_multipair ctx =
  ablation "ablation_multipair"
    "multi-pair merge variant (faster compilation, Section III-B)"
    (Experiments.multipair_ablation ?pool:ctx.pool ())
    ~paper_note:"(paper: used for compile time; quality comparable)"

let ablation_rows_json rows =
  J.List
    (List.map
       (fun (r : Experiments.ablation_row) ->
         J.Obj
           [
             ("kernel", J.String r.Experiments.ab_name);
             ("base", J.Float r.Experiments.ab_base);
             ("variant", J.Float r.Experiments.ab_variant);
           ])
       rows)

let ablation_comm ctx =
  let rows = Experiments.comm_mode_ablation ?pool:ctx.pool () in
  ablation "ablation_comm"
    "hardware queues vs shared-cache valid-flag coupling (Section II)" rows
    ~paper_note:
      "(the paper's motivation for dedicated queues: cache-coupled spin \
       handshakes pay full load/store latency per transfer)";
  collect ctx "ablation_comm" (ablation_rows_json rows)

let ablation_issue_width ctx =
  let rows = Experiments.issue_width_ablation ?pool:ctx.pool () in
  ablation "ablation_issue_width"
    "single-issue vs dual-issue cores (thread-level vs ILP)" rows
    ~paper_note:
      "(both columns are 4-core speedups over a sequential baseline on the \
       same-width machine; dual issue shrinks the pie threading can win)";
  collect ctx "ablation_issue_width" (ablation_rows_json rows)

let ablation_overhead ctx =
  section "ablation_overhead"
    "spawn/barrier overhead amortization vs trip count (Section III-G)";
  Fmt.pr "%-10s %12s@." "trips" "cycles/iter";
  List.iter
    (fun (trip, per_iter, _overhead) -> Fmt.pr "%-10d %12.1f@." trip per_iter)
    (Experiments.overhead_study ?pool:ctx.pool ());
  Fmt.pr
    "(spawn + live-in transfer + barrier costs amortize away as the loop \
     runs more iterations; cold caches contribute at small trip counts \
     too)@."

let ablation_queue ctx =
  section "ablation_queue"
    "queue capacity vs transfer latency (decoupling explains latency \
     tolerance)";
  Fmt.pr "%-10s %-10s %8s@." "queue_len" "latency" "avg spdup";
  List.iter
    (fun (q, l, s) -> Fmt.pr "%-10d %-10d %8.2f@." q l s)
    (Experiments.queue_capacity_ablation ?pool:ctx.pool ())

let extension_smt ctx =
  section "extension_smt"
    "SMT: the 4-thread code on 1, 2 and 4 physical cores (Section II \
     future work)";
  Fmt.pr "%-10s %10s %10s %10s@." "kernel" "4thr/1core" "2+2/2cores"
    "1thr/core";
  let rows = Experiments.smt_study ?pool:ctx.pool () in
  List.iter
    (fun (r : Experiments.smt_row) ->
      Fmt.pr "%-10s %10.2f %10.2f %10.2f@." r.Experiments.smt_name
        r.Experiments.smt_1core r.Experiments.smt_2cores
        r.Experiments.smt_4cores)
    rows;
  let avg f = Experiments.mean (List.map f rows) in
  Fmt.pr "%-10s %10.2f %10.2f %10.2f@." "average"
    (avg (fun r -> r.Experiments.smt_1core))
    (avg (fun r -> r.Experiments.smt_2cores))
    (avg (fun r -> r.Experiments.smt_4cores));
  Fmt.pr
    "(threads sharing a core still hide each other's latencies through \
     the single issue slot)@."

let extension_queue_limit ctx =
  section "extension_queue_limit"
    "constrained queue count (Section II: limited hardware queues)";
  Fmt.pr "%-12s %10s@." "queue pairs" "avg spdup";
  List.iter
    (fun (limit, s) -> Fmt.pr "%-12d %10.2f@." limit s)
    (Experiments.queue_limit_study ?pool:ctx.pool ());
  Fmt.pr "(12 directed pairs suffice for 4 cores; tighter limits force \
          partitions to merge)@."

let extension_cores ctx =
  section "extension_cores" "scaling to 8 cores (Section II grouping)";
  let rows = Experiments.cores_sweep ?pool:ctx.pool () in
  Fmt.pr "%-10s %8s %8s %8s@." "kernel" "2-core" "4-core" "8-core";
  List.iter
    (fun (name, per_core) ->
      Fmt.pr "%-10s" name;
      List.iter (fun (_, s) -> Fmt.pr " %8.2f" s) per_core;
      Fmt.pr "@.")
    rows;
  let avg idx =
    Experiments.mean (List.map (fun (_, pc) -> snd (List.nth pc idx)) rows)
  in
  Fmt.pr "%-10s %8.2f %8.2f %8.2f@." "average" (avg 0) (avg 1) (avg 2)

let extension_simd _ctx =
  section "extension_simd"
    "static 4-way SIMD estimates (Section IV aside: irs-1 1.17, umt2k-4 \
     1.90 on real hardware; lammps/sphot unsuitable)";
  Fmt.pr "%-10s %10s %10s %10s@." "kernel" "vec cyc" "scal cyc" "est spdup";
  List.iter
    (fun (name, (r : Finepar_characterize.Simd.report)) ->
      Fmt.pr "%-10s %10d %10d %10.2f@." name
        r.Finepar_characterize.Simd.vector_cycles
        r.Finepar_characterize.Simd.scalar_cycles
        r.Finepar_characterize.Simd.simd_speedup)
    (Experiments.simd_estimates ())

let characterization _ctx =
  section "characterization" "hot-loop characterization funnel (Section IV)";
  Fmt.pr "%a@." Finepar_characterize.Classify.pp_funnel
    (Experiments.characterization ());
  Fmt.pr
    "(paper: 51 hot loops = 6 init + 25 loop-parallel (16 elementwise + 8 \
     scalar + 1 array reductions) + 2 conditional + 18 selected)@."

(* ------------------------------------------------------------------ *)
(* Simulation-engine throughput: replay the fuzz corpus under every     *)
(* engine and report simulated cycles per wall-clock second.  The       *)
(* cycle counts are identical by the cycle-exactness contract (enforced *)
(* by test_engine.ml and the fuzz oracle); only the wall time differs.  *)
(* The timed region is [Sim.run] alone: building the sim and (for the   *)
(* compiled engine) specializing it are per-kernel setup, not simulation *)
(* — they are timed separately by the tracer's sim/specialize spans —   *)
(* and a [Gc.full_major] between setup and run keeps the setup's        *)
(* collection debt from being paid inside the measured window.  Each     *)
(* engine's rate is the best of [reps] full corpus passes: timing noise  *)
(* (scheduler preemption, heap state left by earlier bench sections) is  *)
(* strictly one-sided — it can only slow a pass down — so best-of is the *)
(* stable estimator of the engine's actual throughput where a pooled     *)
(* mean would drift with whatever ran before.                            *)

let engines ctx =
  section "engines"
    "simulation-engine throughput on the fuzz corpus (cycle vs compiled)";
  let module F = Finepar_fuzz in
  match
    List.find_opt Sys.file_exists [ "test/fuzz_corpus"; "fuzz_corpus" ]
  with
  | None -> Fmt.pr "fuzz corpus directory not found; section skipped@."
  | Some dir ->
    let cases =
      List.filter_map
        (fun path ->
          let case = (F.Corpus.load_file path).F.Corpus.case in
          match Compiler.compile case.F.Gen.config case.F.Gen.kernel with
          | exception _ -> None
          | cc -> Some (case, cc))
        (F.Corpus.files dir)
    in
    let reps = 12 in
    (* One corpus pass: (simulated cycles, seconds inside [Sim.run]). *)
    let pass engine =
      List.fold_left
        (fun (cycles, t) ((case : F.Gen.case), (cc : Compiler.compiled)) ->
          let program = cc.Compiler.code.Finepar_codegen.Lower.program in
          let n_threads = Array.length program.Finepar_machine.Program.cores in
          let core_map = F.Gen.materialize case.F.Gen.placement n_threads in
          let workload =
            Finepar_kernels.Workload.default ~seed:case.F.Gen.workload_seed
              case.F.Gen.kernel
          in
          let sim =
            Finepar_machine.Sim.create ~core_map
              ~config:cc.Compiler.config.Compiler.machine ~initial:workload
              program
          in
          let specialized =
            if engine = Finepar_machine.Engine.Compiled then
              Some (Finepar_machine.Sim.specialize sim)
            else None
          in
          Gc.full_major ();
          let t0 = Unix.gettimeofday () in
          let c =
            match Finepar_machine.Sim.run ~engine ?specialized sim with
            | c -> c
            | exception Finepar_machine.Sim.Stuck _ -> 0
          in
          (cycles + c, t +. (Unix.gettimeofday () -. t0)))
        (0, 0.0) cases
    in
    (* The engines' passes interleave, alternating which goes first, so
       a host slowdown lands on both engines rather than on one engine's
       block of passes. *)
    let tallies =
      List.map (fun e -> (e, (ref 0.0, ref 0))) Finepar_machine.Engine.all
    in
    for rep = 1 to reps do
      List.iter
        (fun (engine, (best, total)) ->
          let c, t = pass engine in
          total := !total + c;
          best := Float.max !best (float_of_int c /. t))
        (if rep mod 2 = 1 then tallies else List.rev tallies)
    done;
    (* One row per engine, both measured in this one run; the compiled
       engine gets a speedup over the reference stepper's rate, and the
       two must simulate the identical cycle total (cycle-exactness
       leaves nothing else to agree on here). *)
    let rows =
      List.map (fun (engine, (best, total)) -> (engine, (!best, !total))) tallies
    in
    let cyc_rate, total =
      List.assoc Finepar_machine.Engine.Cycle rows
    in
    List.iter (fun (_, (_, total')) -> assert (total = total')) rows;
    Fmt.pr "%-8s %14s %18s@." "engine" "sim cycles" "cycles/second";
    List.iter
      (fun (engine, (rate, _)) ->
        Fmt.pr "%-8s %14d %18.0f@."
          (Finepar_machine.Engine.to_string engine)
          total rate)
      rows;
    List.iter
      (fun (engine, (rate, _)) ->
        if engine <> Finepar_machine.Engine.Cycle then
          Fmt.pr "%s-engine sim-throughput speedup: %.2fx (%d corpus cases x \
                  %d reps)@."
            (Finepar_machine.Engine.to_string engine)
            (rate /. cyc_rate) (List.length cases) reps)
      rows;
    collect ctx "engines"
      (J.Obj
         ([
            ("cases", J.Int (List.length cases));
            ("reps", J.Int reps);
            ("simulated_cycles", J.Int total);
          ]
         @ List.map
             (fun (engine, (rate, _)) ->
               ( Finepar_machine.Engine.to_string engine
                 ^ "_cycles_per_second",
                 J.Float rate ))
             rows
         @ List.filter_map
             (fun (engine, (rate, _)) ->
               if engine = Finepar_machine.Engine.Cycle then None
               else
                 Some
                   ( Finepar_machine.Engine.to_string engine ^ "_speedup",
                     J.Float (rate /. cyc_rate) ))
             rows))

(* ------------------------------------------------------------------ *)
(* Compile-and-simulate service throughput: a registry subset crossed   *)
(* with every engine, served cold (fresh store — every request is a     *)
(* compile + simulate) and warm (identical second batch — every request *)
(* is a store read), at one and four domains.  The responses are        *)
(* asserted byte-identical cold-vs-warm and -j1-vs-j4 (the service's    *)
(* determinism contract); only the wall time differs.  Warm passes use  *)
(* best-of-reps like the engines section: timing noise is one-sided.    *)
(* The numbers are machine-dependent, so the CI gate never compares     *)
(* them exactly — it gates meta.min_service_warm_speedup against the    *)
(* warm_speedup this section reports (warm rps / cold rps at -j1).      *)

let service ctx =
  section "service"
    "compile-and-simulate service (requests/second, cold vs warm store)";
  let module Wire = Finepar_service.Wire in
  let module Cache = Finepar_service.Cache in
  let module Server = Finepar_service.Server in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let entries =
    List.filteri (fun i _ -> i < 6) Finepar_kernels.Registry.all
  in
  let reqs =
    List.concat_map
      (fun (e : Finepar_kernels.Registry.entry) ->
        let job =
          {
            Wire.kernel = e.Finepar_kernels.Registry.kernel;
            config = Compiler.default_config ~cores:4 ();
            sequential = false;
            placement = Finepar_fuzz.Gen.Identity;
            workload = Wire.Explicit e.Finepar_kernels.Registry.workload;
            profile_counters = [];
          }
        in
        List.map
          (fun engine -> Result.ok (Wire.Run { job; engine }))
          Finepar_machine.Engine.all)
      entries
  in
  let n = List.length reqs in
  let measure ~jobs =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "finepar-bench-svc-%d-j%d" (Unix.getpid ()) jobs)
    in
    let pool = if jobs > 1 then Some (Pool.create ~domains:jobs ()) else None in
    let server = Server.create ?pool ~cache:(Cache.create dir) () in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let cold = Server.handle_requests server reqs in
    let t_cold = Unix.gettimeofday () -. t0 in
    let reps = 5 in
    let t_warm = ref infinity in
    for _ = 1 to reps do
      Gc.full_major ();
      let t0 = Unix.gettimeofday () in
      let warm = Server.handle_requests server reqs in
      let t = Unix.gettimeofday () -. t0 in
      assert (warm = cold);
      if t < !t_warm then t_warm := t
    done;
    rm_rf dir;
    (cold, float_of_int n /. t_cold, float_of_int n /. !t_warm)
  in
  let cold_j1, cold_rps_j1, warm_rps_j1 = measure ~jobs:1 in
  let cold_j4, cold_rps_j4, warm_rps_j4 = measure ~jobs:4 in
  assert (cold_j1 = cold_j4);
  let warm_speedup = warm_rps_j1 /. cold_rps_j1 in
  Fmt.pr "%-8s %14s %14s@." "domains" "cold req/s" "warm req/s";
  Fmt.pr "%-8d %14.1f %14.1f@." 1 cold_rps_j1 warm_rps_j1;
  Fmt.pr "%-8d %14.1f %14.1f@." 4 cold_rps_j4 warm_rps_j4;
  Fmt.pr
    "warm-store speedup: %.1fx over cold (%d requests: %d kernels x %d \
     engines; responses byte-identical cold-vs-warm and -j1-vs-j4)@."
    warm_speedup n (List.length entries)
    (List.length Finepar_machine.Engine.all);
  collect ctx "service"
    (J.Obj
       [
         ("requests", J.Int n);
         ("cold_rps_j1", J.Float cold_rps_j1);
         ("warm_rps_j1", J.Float warm_rps_j1);
         ("cold_rps_j4", J.Float cold_rps_j4);
         ("warm_rps_j4", J.Float warm_rps_j4);
         ("warm_speedup", J.Float warm_speedup);
       ])

(* ------------------------------------------------------------------ *)
(* Autotune search coverage and throughput: the generational beam       *)
(* search (lib/tune) over a registry subset, on the compiled engine     *)
(* (cycle counts are engine-invariant, so the rows match any engine).   *)
(* The per-kernel rows and every count are deterministic and compared   *)
(* exactly by the CI gate; configs_per_second is machine-dependent and  *)
(* stripped before the comparison (and reported in the job summary).    *)

let autotune ctx =
  section "autotune" "generational autotune search (lib/tune coverage)";
  let module Search = Finepar_tune.Search in
  let targets =
    List.filteri (fun i _ -> i < 6) (Search.registry_targets ())
  in
  let params =
    { Search.default_params with Search.generations = 2; budget = 12 }
  in
  let evaluator =
    Search.direct ?pool:ctx.pool ~engine:Finepar_machine.Engine.Compiled ()
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let rows = Search.run params evaluator targets in
  let dt = Unix.gettimeofday () -. t0 in
  let evaluated =
    List.fold_left
      (fun a (r : Search.row) -> a + r.Search.r_evaluated)
      0 rows
  in
  let cps = if dt > 0. then float_of_int evaluated /. dt else 0. in
  Fmt.pr "%a" Search.pp_table rows;
  Fmt.pr "throughput: %.1f configs evaluated/second (%d in %.2fs)@." cps
    evaluated dt;
  let deterministic =
    match Search.to_json ~params rows with J.Obj kvs -> kvs | _ -> []
  in
  collect ctx "autotune"
    (J.Obj (deterministic @ [ ("configs_per_second", J.Float cps) ]))

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock benchmarks of the toolchain itself.             *)

let wallclock ctx =
  section "wallclock" "toolchain wall-clock benchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let e = Option.get (Finepar_kernels.Registry.find "lammps-3") in
  let kernel = e.Finepar_kernels.Registry.kernel in
  let workload = e.Finepar_kernels.Registry.workload in
  let compiled =
    Compiler.compile (Compiler.default_config ~cores:4 ()) kernel
  in
  (* irs-1 has the most fibers in the registry (95): the merge's worst
     case. *)
  let irs1 =
    (Option.get (Finepar_kernels.Registry.find "irs-1"))
      .Finepar_kernels.Registry.kernel
  in
  let tests =
    Test.make_grouped ~name:"finepar"
      [
        Test.make ~name:"compile lammps-3 (4 cores)"
          (Staged.stage (fun () ->
               ignore
                 (Compiler.compile (Compiler.default_config ~cores:4 ()) kernel)));
        Test.make ~name:"compile irs-1 (4 cores)"
          (Staged.stage (fun () ->
               ignore
                 (Compiler.compile (Compiler.default_config ~cores:4 ()) irs1)));
        (* Machine state for one run: memory image, queues and cache
           tags, before the first cycle. *)
        Test.make ~name:"sim create lammps-3 (4 cores)"
          (Staged.stage (fun () ->
               ignore
                 (Finepar_machine.Sim.create
                    ~config:compiled.Compiler.config.Compiler.machine
                    ~initial:workload
                    compiled.Compiler.code.Finepar_codegen.Lower.program)));
        (* The reference stepper, as when the baseline row was
           recorded; the engines section measures the compiled one. *)
        Test.make ~name:"simulate lammps-3 (4 cores, 256 iters)"
          (Staged.stage (fun () ->
               ignore
                 (Runner.run ~check:false ~workload
                    ~engine:Finepar_machine.Engine.Cycle compiled)));
        Test.make ~name:"reference evaluator lammps-3"
          (Staged.stage (fun () ->
               ignore (Finepar_ir.Eval.run_result ~workload kernel)));
        Test.make ~name:"classify 51-loop corpus"
          (Staged.stage (fun () -> ignore (Experiments.characterization ())));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> ())
    results;
  let rows = List.sort compare !rows in
  List.iter
    (fun (name, est) -> Fmt.pr "%-55s %14.1f ns/run@." name est)
    rows;
  collect ctx "wallclock"
    (J.List
       (List.map
          (fun (name, est) ->
            J.Obj [ ("name", J.String name); ("ns_per_run", J.Float est) ])
          rows))

let all_sections =
  [
    ("table1", table1);
    ( "fig12",
      fun ctx ->
        let rows = fig12 ctx in
        table2 ctx rows );
    ("table3", table3);
    ("fig11", fig11);
    ("fig13", fig13);
    ("fig14", fig14);
    ("ablation_throughput", ablation_throughput);
    ("ablation_multipair", ablation_multipair);
    ("ablation_comm", ablation_comm);
    ("ablation_issue_width", ablation_issue_width);
    ("ablation_overhead", ablation_overhead);
    ("ablation_queue", ablation_queue);
    ("extension_smt", extension_smt);
    ("extension_queue_limit", extension_queue_limit);
    ("extension_cores", extension_cores);
    ("extension_simd", extension_simd);
    ("characterization", characterization);
    ("engines", engines);
    ("service", service);
    ("wallclock", wallclock);
    ("autotune", autotune);
  ]

(* -j N, -jN or --jobs=N; --trace-out=FILE, --profile[=FILE] and
   --history=FILE ('none' disables the default bench/history.jsonl);
   anything else is a section-name prefix or a --json=FILE output
   request. *)
type opts = {
  json_out : string option;
  jobs : int option;
  wanted : string list;
  trace_out : string option;
  profile : string option;  (** "-" = text to stdout, else JSON file *)
  history : string option;
}

let parse_args args =
  let json_out = ref None
  and jobs = ref None
  and wanted = ref []
  and trace_out = ref None
  and profile = ref None
  and history = ref (Some "bench/history.jsonl") in
  let cut ~prefix a = String.sub a (String.length prefix)
      (String.length a - String.length prefix)
  in
  let rec go = function
    | [] -> ()
    | "-j" :: n :: rest ->
      jobs := int_of_string_opt n;
      go rest
    | a :: rest ->
      (if String.starts_with ~prefix:"--json=" a then
         json_out := Some (cut ~prefix:"--json=" a)
       else if String.starts_with ~prefix:"--jobs=" a then
         jobs := int_of_string_opt (cut ~prefix:"--jobs=" a)
       else if String.starts_with ~prefix:"--trace-out=" a then
         trace_out := Some (cut ~prefix:"--trace-out=" a)
       else if String.equal "--profile" a then profile := Some "-"
       else if String.starts_with ~prefix:"--profile=" a then
         profile := Some (cut ~prefix:"--profile=" a)
       else if String.starts_with ~prefix:"--history=" a then begin
         match cut ~prefix:"--history=" a with
         | "none" -> history := None
         | file -> history := Some file
       end
       else if String.starts_with ~prefix:"-j" a && String.length a > 2 then
         jobs := int_of_string_opt (String.sub a 2 (String.length a - 2))
       else wanted := a :: !wanted);
      go rest
  in
  go args;
  {
    json_out = !json_out;
    jobs = !jobs;
    wanted = List.rev !wanted;
    trace_out = !trace_out;
    profile = !profile;
    history = !history;
  }

let pool_metrics (p : Pool.stats) =
  [
    ("pool.tasks", float_of_int p.Pool.tasks);
    ("pool.steals", float_of_int p.Pool.steals);
    ("pool.steal_failures", float_of_int p.Pool.steal_failures);
    ("pool.busy_seconds", p.Pool.busy_seconds);
    ("pool.idle_seconds", p.Pool.idle_seconds);
    ("pool.imbalance", p.Pool.imbalance);
  ]

let pool_json (p : Pool.stats) =
  J.Obj
    [
      ("domains", J.Int p.Pool.domains);
      ("runs", J.Int p.Pool.runs);
      ("tasks", J.Int p.Pool.tasks);
      ("steals", J.Int p.Pool.steals);
      ("steal_failures", J.Int p.Pool.steal_failures);
      ("busy_seconds", J.Float p.Pool.busy_seconds);
      ("idle_seconds", J.Float p.Pool.idle_seconds);
      ("imbalance", J.Float p.Pool.imbalance);
    ]

let () =
  let module Tracer = Finepar_telemetry.Tracer in
  let t_start = Unix.gettimeofday () in
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let tracing = opts.trace_out <> None || opts.profile <> None in
  let tracer =
    if tracing then begin
      let t = Tracer.create () in
      Tracer.install t;
      Some t
    end
    else None
  in
  let pool = Pool.create ?domains:opts.jobs () in
  Fmt.epr "using %d domain(s); output is -j invariant@." (Pool.domains pool);
  let ctx = { pool = Some pool; collected = [] } in
  let matches name w =
    String.length w > 0 && String.length name >= String.length w
    && String.sub name 0 (String.length w) = w
  in
  List.iter
    (fun (name, f) ->
      if opts.wanted = [] || List.exists (matches name) opts.wanted then
        Tracer.with_span ~cat:"bench" ("bench:" ^ name) (fun () -> f ctx))
    all_sections;
  Tracer.uninstall ();
  let stats = Pool.stats pool in
  let wall = Unix.gettimeofday () -. t_start in
  (* Scheduling-dependent, so stderr (the CI diffs stdout and the
     --json file across -j): the load-imbalance line the bench workflow
     scrapes into its job summary. *)
  Fmt.epr
    "pool: %d domains, %d tasks, %d steals (%d failed), busy %.3fs, idle \
     %.3fs, imbalance %.2f@."
    stats.Pool.domains stats.Pool.tasks stats.Pool.steals
    stats.Pool.steal_failures stats.Pool.busy_seconds stats.Pool.idle_seconds
    stats.Pool.imbalance;
  let sections = J.Obj [ ("sections", J.Obj (List.rev ctx.collected)) ] in
  (match opts.json_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    (* The "pool" object is opt-in (tracing flags) so the default
       --json document stays byte-identical at every -j. *)
    let doc =
      if tracing then
        match sections with
        | J.Obj kvs -> J.Obj (kvs @ [ ("pool", pool_json stats) ])
        | other -> other
      else sections
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        J.to_channel oc doc;
        output_char oc '\n');
    Fmt.epr "metrics written to %s@." file);
  (* Every run appends one line of scalar metrics to the history file;
     finepar perf-report and check_bench --history read it back. *)
  (match opts.history with
  | None -> ()
  | Some path ->
    let module History = Finepar_telemetry.History in
    let metrics =
      History.summarize_sections sections
      @ [ ("wall_seconds", wall) ]
      @ pool_metrics stats
    in
    History.append ~path
      (History.entry ~time:t_start ~label:"bench" ~jobs:(Pool.domains pool)
         ~metrics);
    Fmt.epr "history appended to %s@." path);
  (match tracer with
  | None -> ()
  | Some t ->
    (match opts.trace_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Finepar_telemetry.Chrome_trace.to_channel oc (Tracer.to_chrome t));
      Fmt.epr "trace written to %s@." file);
    match opts.profile with
    | None -> ()
    | Some dest ->
      let tree = Finepar_telemetry.Profile_tree.of_spans (Tracer.spans t) in
      if String.equal dest "-" then
        Fmt.pr "@.%a@."
          (fun ppf tr -> Finepar_telemetry.Profile_tree.pp ppf tr)
          tree
      else begin
        let oc = open_out dest in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            J.to_channel oc (Finepar_telemetry.Profile_tree.to_json tree);
            output_char oc '\n');
        Fmt.epr "profile written to %s@." dest
      end);
  rule ();
  print_endline "done."

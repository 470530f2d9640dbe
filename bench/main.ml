(* The paper-reproduction harness: regenerates every table and figure of
   the paper's evaluation, printing measured values side by side with
   the published ones.  Every number comes from the deterministic
   simulation or from static analysis, so the output is the same on
   every host; host time is measured by the end-to-end benchmark in
   benchmark/ instead.

   Sections (select with a command-line argument prefix, default: all):
     table1 table2 table3 fig11 fig12 fig13 fig14
     ablation_throughput ablation_multipair ablation_comm
     ablation_issue_width ablation_overhead ablation_queue
     extension_smt extension_queue_limit extension_cores extension_simd
     characterization autotune

   --json=FILE additionally writes the measured numbers of the sections
   that ran as machine-readable JSON; the CI bench gate compares it
   exactly against bench/baseline.json.

   -j N (or --jobs=N; default: the machine's core count minus one) sets
   the domain-pool width used for the per-kernel fan-outs inside each
   section; results are merged by task index, so the output is
   byte-identical at every -j.  -j 1 is fully sequential.

   --trace-out=FILE and --profile[=FILE] run the sections under the
   host tracer and write its Chrome trace or span tree. *)

open Finepar
module J = Finepar_telemetry.Json
module Pool = Finepar_exec.Pool
module Registry = Finepar_kernels.Registry

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
  let paper cores = List.assoc cores Registry.paper_fig12_avg in
  Fmt.pr "%-10s %8.2f %8.2f   (paper: %.2f / %.2f)@." "average" a2 a4
    (paper 2) (paper 4);
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
  let t2 = Experiments.table2 rows in
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
        r.Experiments.t3_speedup p.Registry.p_fibers
        p.Registry.p_deps p.Registry.p_balance
        p.Registry.p_com_ops
        p.Registry.p_queues
        p.Registry.p_speedup4)
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
  Fmt.pr "   (paper avg: %s)@."
    (String.concat " / "
       (List.map (fun (_, s) -> Printf.sprintf "%.2f" s) Registry.paper_fig13_avg));
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
  let paper_base, paper_chosen = Registry.paper_fig14 in
  Fmt.pr
    "%-10s %8.2f %10s %8.2f   improved: %d kernels (paper: %.2f -> %.2f, 8 \
     kernels)@."
    "average"
    (avg (fun r -> r.Experiments.base))
    ""
    (avg (fun r -> r.Experiments.chosen))
    improved paper_base paper_chosen;
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

(* Section III-B: merge every cycle so partitions have only
   unidirectional dependences. *)
let ablation_throughput ctx =
  ablation "ablation_throughput"
    "throughput heuristic: unidirectional partitions only (Section III-B)"
    (Experiments.ablation ?pool:ctx.pool (fun c ->
         { c with Compiler.throughput = true }))
    ~paper_note:"(paper: 3 improved, 6 degraded, ~11% average slowdown)"

(* Section III-B: the multi-pair merge against single-pair greedy. *)
let ablation_multipair ctx =
  ablation "ablation_multipair"
    "multi-pair merge variant (faster compilation, Section III-B)"
    (Experiments.ablation ?pool:ctx.pool (fun c ->
         { c with Compiler.algorithm = `Multi_pair }))
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

(* Section II: every cross-core transfer lowered to a spin-wait
   valid-flag handshake through the ordinary cache hierarchy instead of
   the paper's hardware queues. *)
let ablation_comm ctx =
  let rows =
    Experiments.ablation ?pool:ctx.pool (fun c ->
        { c with Compiler.comm_mode = Finepar_transform.Comm.Shared_cache })
  in
  ablation "ablation_comm"
    "hardware queues vs shared-cache valid-flag coupling (Section II)" rows
    ~paper_note:
      "(the paper's motivation for dedicated queues: cache-coupled spin \
       handshakes pay full load/store latency per transfer)";
  collect ctx "ablation_comm" (ablation_rows_json rows)

(* Every core dual-issue: both columns are speedups over a sequential
   baseline on the same machine, so the variant pits 4 dual-issue cores
   against 1 (thread-level vs instruction-level parallelism). *)
let ablation_issue_width ctx =
  let rows =
    Experiments.ablation ?pool:ctx.pool (fun c ->
        {
          c with
          Compiler.machine =
            { c.Compiler.machine with Finepar_machine.Config.issue_width = 2 };
        })
  in
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
(* Autotune search coverage: the generational beam search (lib/tune)    *)
(* over a registry subset, on the compiled engine (cycle counts are     *)
(* engine-invariant, so the rows match any engine).  The per-kernel     *)
(* rows and every count are deterministic and compared exactly by the   *)
(* CI gate.                                                             *)

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
  let rows = Search.run params evaluator targets in
  Fmt.pr "%a" Search.pp_table rows;
  collect ctx "autotune" (Search.to_json ~params rows)

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
    ("autotune", autotune);
  ]

(* -j N, -jN or --jobs=N; --trace-out=FILE and --profile[=FILE];
   anything else is a section-name prefix or a --json=FILE output
   request. *)
type opts = {
  json_out : string option;
  jobs : int option;
  wanted : string list;
  trace_out : string option;
  profile : string option;  (** "-" = text to stdout, else JSON file *)
}

let parse_args args =
  let json_out = ref None
  and jobs = ref None
  and wanted = ref []
  and trace_out = ref None
  and profile = ref None in
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
  }

(* The selected sections, the pool line and the --json document. *)
let run_sections opts =
  let tracing = opts.trace_out <> None || opts.profile <> None in
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
        Finepar_telemetry.Tracer.with_span ~cat:"bench" ("bench:" ^ name)
          (fun () -> f ctx))
    all_sections;
  let stats = Pool.stats pool in
  (* Scheduling-dependent, so stderr (the CI diffs stdout and the
     --json file across -j): the load-imbalance line the bench workflow
     scrapes into its job summary. *)
  Fmt.epr "%a@." Pool.pp_stats stats;
  let sections = J.Obj [ ("sections", J.Obj (List.rev ctx.collected)) ] in
  match opts.json_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    (* The "pool" object is opt-in (tracing flags) so the default
       --json document stays byte-identical at every -j. *)
    let doc =
      if tracing then
        match sections with
        | J.Obj kvs -> J.Obj (kvs @ [ ("pool", Pool.stats_json stats) ])
        | other -> other
      else sections
    in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        J.to_channel oc doc;
        output_char oc '\n');
    Fmt.epr "metrics written to %s@." file

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  Finepar_telemetry.Host_trace.with_tracing ~trace_out:opts.trace_out
    ~profile:opts.profile (fun () -> run_sections opts);
  rule ();
  print_endline "done."

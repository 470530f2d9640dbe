(** Drivers for every table and figure in the paper's evaluation.  See
    the .mli for the grid every measured section runs over. *)

open Finepar_ir
open Finepar_machine
open Finepar_kernels
module Pool = Finepar_exec.Pool

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* The grid.                                                            *)

(* [f v e] for every variant [v] x registry entry [e], as one fan-out
   over [pool]; one row per entry, in registry order, holding its
   results in variant order.  Tasks are regrouped by index (see
   {!Finepar_exec.Pool.map}), so a pooled grid is byte-identical to a
   sequential one. *)
let grid ?pool variants f =
  let variants = Array.of_list variants in
  let n = Array.length variants in
  let tasks =
    List.concat_map (fun e -> List.init n (fun v -> (e, v))) Registry.all
  in
  let results =
    Array.of_list (Pool.map_opt pool ~f:(fun (e, v) -> f variants.(v) e) tasks)
  in
  List.mapi (fun i e -> (e, Array.sub results (i * n) n)) Registry.all

(* Variant [i]'s results over the registry. *)
let column i rows = List.map (fun (_, r) -> r.(i)) rows

let name (e : Registry.entry) = e.Registry.kernel.Kernel.name

(* The paper's 4-core configuration on the default machine. *)
let paper_config = Compiler.default_config ~cores:4 ()

let job config (e : Registry.entry) =
  Job.make ~config ~workload:e.Registry.workload ~cores:config.Compiler.cores
    e.Registry.kernel

let engine = Engine.default
let evaluator = Job.direct ~engine ()

(* The paper's protocol on one registry kernel: a sequential profiling
   run, then the parallel compile fed its counters. *)
let speedup config e =
  let _, _, s = Job.speedup evaluator (job config e) in
  s

(* The same protocol, keeping the statistics of the compile it
   measured. *)
let measured config e =
  let seq, c, par = Job.measured_speedup ~engine evaluator (job config e) in
  (c.Compiler.stats, float_of_int seq /. float_of_int par)

(* ------------------------------------------------------------------ *)

(** Table I: the kernel inventory — names, source locations and the share
    of application time each loop accounts for. *)
type table1_row = {
  t1_name : string;
  t1_location : string;
  t1_pct : float;
  t1_measured_ops : int;  (** compute ops per iteration in our kernel *)
  t1_trip : int;
}

let table1 () =
  List.map
    (fun (e : Registry.entry) ->
      {
        t1_name = name e;
        t1_location = e.Registry.location;
        t1_pct = e.Registry.pct_time;
        t1_measured_ops = Stmt.op_count e.Registry.kernel.Kernel.body;
        t1_trip = Kernel.trip_count e.Registry.kernel;
      })
    Registry.all

(* ------------------------------------------------------------------ *)

(** Fig. 12: per-kernel speedups on 2 and 4 cores. *)
type fig12_row = { f12_name : string; f12_app : string; s2 : float; s4 : float }

let fig12 ?pool () =
  grid ?pool [ 2; 4 ] (fun cores -> speedup (Compiler.default_config ~cores ()))
  |> List.map (fun ((e : Registry.entry), s) ->
      { f12_name = name e; f12_app = e.Registry.app; s2 = s.(0); s4 = s.(1) })

let fig12_averages rows =
  (mean (List.map (fun r -> r.s2) rows), mean (List.map (fun r -> r.s4) rows))

(* ------------------------------------------------------------------ *)

(** Table II: expected whole-application speedups, combining the Table I
    time fractions with the measured kernel speedups through Amdahl's
    law: S_app = 1 / ((1 - sum f_i) + sum (f_i / s_i)). *)
type table2_row = {
  t2_app : string;
  t2_s2 : float;
  t2_s4 : float;
  t2_paper_s2 : float;
  t2_paper_s4 : float;
}

let table2 rows =
  let app_speedup app pick =
    let entries = Registry.by_app app in
    let covered =
      List.fold_left (fun acc e -> acc +. (e.Registry.pct_time /. 100.0)) 0.0
        entries
    in
    let slowed =
      List.fold_left
        (fun acc (e : Registry.entry) ->
          let r =
            List.find
              (fun r -> String.equal r.f12_name e.Registry.kernel.Kernel.name)
              rows
          in
          acc +. (e.Registry.pct_time /. 100.0 /. pick r))
        0.0 entries
    in
    1.0 /. (1.0 -. covered +. slowed)
  in
  let paper app =
    match
      List.find_opt (fun (a, _, _) -> String.equal a app) Registry.paper_table2
    with
    | Some (_, p2, p4) -> (p2, p4)
    | None -> (0.0, 0.0)
  in
  let per_app =
    List.map
      (fun app ->
        let p2, p4 = paper app in
        {
          t2_app = app;
          t2_s2 = app_speedup app (fun r -> r.s2);
          t2_s4 = app_speedup app (fun r -> r.s4);
          t2_paper_s2 = p2;
          t2_paper_s4 = p4;
        })
      Registry.apps
  in
  let p2, p4 = paper "average" in
  per_app
  @ [
      {
        t2_app = "average";
        t2_s2 = mean (List.map (fun r -> r.t2_s2) per_app);
        t2_s4 = mean (List.map (fun r -> r.t2_s4) per_app);
        t2_paper_s2 = p2;
        t2_paper_s4 = p4;
      };
    ]

(* ------------------------------------------------------------------ *)

(** Table III: static and dynamic characteristics of the 4-core
    compilation of each kernel, alongside the paper's values.  The
    static columns are those of the profile-fed compile whose run gives
    the speedup column. *)
type table3_row = {
  t3_name : string;
  fibers : int;
  deps : int;
  balance : float;
  com_ops : int;
  queues : int;
  t3_speedup : float;
  paper : Registry.paper_row;
}

let table3 ?pool () =
  grid ?pool [ paper_config ] measured
  |> List.map (fun ((e : Registry.entry), r) ->
      let st, speedup = r.(0) in
      {
        t3_name = name e;
        fibers = st.Compiler.initial_fibers;
        deps = st.Compiler.data_deps;
        balance = st.Compiler.load_balance;
        com_ops = st.Compiler.com_ops;
        queues = st.Compiler.queue_pairs_static;
        t3_speedup = speedup;
        paper = e.Registry.paper;
      })

(* ------------------------------------------------------------------ *)

(** Fig. 13: speedup degradation as the queue transfer latency grows
    from 5 to 20, 50 and 100 cycles (4 cores). *)
type fig13_point = {
  latency : int;
  per_kernel : (string * float) list;
  f13_avg : float;
  no_speedup : int;  (** kernels at or below 1.0x *)
}

let fig13 ?pool () =
  let latencies = [ 5; 20; 50; 100 ] in
  let rows =
    grid ?pool latencies (fun transfer_latency ->
        let machine = { Config.default with Config.transfer_latency } in
        speedup { paper_config with Compiler.machine })
  in
  List.mapi
    (fun i latency ->
      let speeds = column i rows in
      {
        latency;
        per_kernel = List.combine (List.map name Registry.all) speeds;
        f13_avg = mean speeds;
        no_speedup = List.length (List.filter (fun s -> s <= 1.02) speeds);
      })
    latencies

(* ------------------------------------------------------------------ *)

(** Fig. 14: effect of control-flow speculation (Section III-H).  The
    paper enables speculation per region through source directives
    (Section III-I), so the "with speculation" configuration keeps the
    transformation only where it does not lose performance. *)
type fig14_row = {
  f14_name : string;
  base : float;
  speculated : float;  (** raw effect of always speculating *)
  chosen : float;  (** directive-guided: best of the two versions *)
  converted_ifs : int;
}

let fig14 ?pool () =
  grid ?pool
    [ paper_config; { paper_config with Compiler.speculation = true } ]
    measured
  |> List.map (fun (e, r) ->
      let _, base = r.(0) and st, speculated = r.(1) in
      {
        f14_name = name e;
        base;
        speculated;
        chosen = Float.max base speculated;
        converted_ifs = st.Compiler.speculated_ifs;
      })

(* ------------------------------------------------------------------ *)

(** Ablations: 4-core speedups under the paper's configuration
    ([ab_base]) against the same grid with one compiler or machine
    option changed ([ab_variant]). *)
type ablation_row = { ab_name : string; ab_base : float; ab_variant : float }

let ablation ?pool variant =
  grid ?pool [ paper_config; variant paper_config ] speedup
  |> List.map (fun (e, s) ->
      { ab_name = name e; ab_base = s.(0); ab_variant = s.(1) })

(* ------------------------------------------------------------------ *)

(** Section III-G: start-up overhead amortization.  The paper argues the
    spawn/barrier overhead is negligible because the loops run many
    iterations; we measure 4-core speedup as the trip count shrinks. *)
let overhead_study ?pool () =
  let e = Option.get (Registry.find "lammps-1") in
  let trips = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] in
  let cycles =
    Pool.map_opt pool
      ~f:(fun trip ->
        let kernel = { e.Registry.kernel with Kernel.hi = trip } in
        let job =
          Job.make ~config:paper_config ~workload:e.Registry.workload ~cores:4
            kernel
        in
        (Job.eval ~engine job).Runner.cycles)
      trips
  in
  (* Steady-state cost per iteration, from the two longest runs. *)
  let at trip = List.assoc trip (List.combine trips cycles) in
  let steady = float_of_int (at 256 - at 128) /. 128.0 in
  List.map2
    (fun trip cycles ->
      let per_iter = float_of_int cycles /. float_of_int trip in
      let overhead = float_of_int cycles -. (steady *. float_of_int trip) in
      (trip, per_iter, Float.max 0.0 overhead))
    trips cycles

(** Queue-capacity ablation: how queue length interacts with transfer
    latency (explains why decoupled pipelines tolerate latency). *)
let queue_capacity_ablation ?pool () =
  let machines =
    List.concat_map
      (fun queue_len -> List.map (fun l -> (queue_len, l)) [ 5; 50 ])
      [ 2; 4; 20 ]
  in
  let rows =
    grid ?pool machines (fun (queue_len, transfer_latency) ->
        let machine =
          { Config.default with Config.queue_len; transfer_latency }
        in
        speedup { paper_config with Compiler.machine })
  in
  List.mapi (fun i (q, l) -> (q, l, mean (column i rows))) machines

(* ------------------------------------------------------------------ *)

(** Section IV: the characterization funnel over all 51 hot loops. *)
let characterization () =
  Finepar_characterize.Classify.funnel Corpus.all_hot_loops

(* ------------------------------------------------------------------ *)

(** Fig. 11: transfer-latency semantics demo.  Returns, for an early and
    a late dequeue relative to the enqueue, the cycle at which the
    dequeue completed — the early dequeue stalls until
    [enqueue time + transfer latency]. *)
let fig11_demo () =
  let transfer_latency = 5 in
  (* Hand-built two-core program: core 0 busy-waits then enqueues; core 1
     dequeues immediately (early) and again after a long delay (late). *)
  let build_core0 () =
    let b = Program.Builder.create () in
    let r = Program.Builder.fresh_reg b in
    let acc = Program.Builder.fresh_reg b in
    Program.Builder.emit b (Isa.Li (r, Types.VInt 42));
    Program.Builder.emit b (Isa.Li (acc, Types.VInt 0));
    (* ~30 cycles of integer work before each enqueue. *)
    for _ = 1 to 30 do
      Program.Builder.emit b (Isa.Bin (Types.Add, acc, acc, r))
    done;
    Program.Builder.emit b (Isa.Enq (0, r));
    for _ = 1 to 30 do
      Program.Builder.emit b (Isa.Bin (Types.Add, acc, acc, r))
    done;
    Program.Builder.emit b (Isa.Enq (0, r));
    Program.Builder.emit b Isa.Halt;
    Program.Builder.finish b
  in
  let build_core1 () =
    let b = Program.Builder.create () in
    let d = Program.Builder.fresh_reg b in
    let acc = Program.Builder.fresh_reg b in
    Program.Builder.emit b (Isa.Li (acc, Types.VInt 0));
    (* Early dequeue: issued before the first enqueue completes. *)
    Program.Builder.emit b (Isa.Deq (d, 0));
    (* Burn far more cycles than core 0 so the second dequeue is late. *)
    for _ = 1 to 120 do
      Program.Builder.emit b (Isa.Bin (Types.Add, acc, acc, d))
    done;
    Program.Builder.emit b (Isa.Deq (d, 0));
    Program.Builder.emit b Isa.Halt;
    Program.Builder.finish b
  in
  let program =
    {
      Program.cores = [| build_core0 (); build_core1 () |];
      queues = [| { Isa.src = 0; dst = 1; cls = Isa.Qint } |];
      arrays = [||];
    }
  in
  let config = { Config.default with Config.transfer_latency } in
  let sim = Sim.create ~tracing:true ~config ~initial:[] program in
  ignore (Sim.run sim);
  let events = Sim.events sim in
  let issue_times core pred =
    List.filter_map
      (function
        | Sim.Ev_issue { core = c; cycle; instr; _ } when c = core && pred instr ->
          Some cycle
        | Sim.Ev_issue _ | Sim.Ev_stall _ -> None)
      events
  in
  let enqs = issue_times 0 (function Isa.Enq _ -> true | _ -> false) in
  let deqs = issue_times 1 (function Isa.Deq _ -> true | _ -> false) in
  (transfer_latency, List.combine enqs deqs)

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's measurements (its stated future work  *)
(* and scaling discussion, Sections II and VI).                        *)

(** SMT study (Section II: "Our technique can also be applied to multiple
    hardware threads on the same core, but we have not experimented with
    this option yet").  The same 4-partition code runs on three physical
    configurations: 4 threads on 1 core, 2+2 on 2 cores, and 1 thread per
    core.  Returns per-kernel speedups over the sequential baseline. *)
type smt_row = {
  smt_name : string;
  smt_1core : float;  (** 4 hardware threads sharing one core *)
  smt_2cores : float;  (** 2 threads on each of 2 cores *)
  smt_4cores : float;  (** the paper's configuration *)
}

let smt_study ?pool () =
  grid ?pool [ paper_config ] (fun config e ->
      let job = job config e in
      let cycles r = float_of_int r.Runner.cycles in
      let seq = cycles (Job.eval ~engine { job with Job.sequential = true }) in
      let par = Job.compile job in
      let speed placement =
        seq /. cycles (Job.run ~engine { job with Job.placement } par)
      in
      {
        smt_name = name e;
        smt_1core = speed Job.Single_core;
        smt_2cores = speed Job.Mod2;
        smt_4cores = speed Job.Identity;
      })
  |> List.map (fun (_, r) -> r.(0))

(** Queue-count constraint (Section II): mean 4-core speedup as the
    number of usable point-to-point queue pairs shrinks. *)
let queue_limit_study ?pool () =
  let limits = [ 12; 6; 4; 2 ] in
  let rows =
    grid ?pool limits (fun limit ->
        speedup { paper_config with Compiler.max_queue_pairs = Some limit })
  in
  List.mapi (fun i limit -> (limit, mean (column i rows))) limits

(** Scaling beyond 4 cores (Section II's grouping discussion): per-kernel
    speedups at 2, 4 and 8 cores. *)
let cores_sweep ?pool () =
  let cores = [ 2; 4; 8 ] in
  grid ?pool cores (fun cores -> speedup (Compiler.default_config ~cores ()))
  |> List.map (fun (e, s) -> (name e, List.combine cores (Array.to_list s)))

(** The Section IV SIMD aside: static 4-way SIMD speedup estimates per
    kernel (the paper reports 1.17 for irs-1 and 1.90 for umt2k-4, and
    that lammps and sphot are unsuitable). *)
let simd_estimates () =
  List.map
    (fun (e : Registry.entry) ->
      (name e, Finepar_characterize.Simd.estimate e.Registry.kernel))
    Registry.all

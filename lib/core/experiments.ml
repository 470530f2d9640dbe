(** Drivers for every table and figure in the paper's evaluation
    (Section IV and V).  Each function returns plain data; the benchmark
    harness ([bench/main.ml]) and the CLI render it. *)

open Finepar_ir
open Finepar_machine
open Finepar_kernels
module Pool = Finepar_exec.Pool

(* Every driver below fans out over independent (kernel, config)
   simulations; [pmap] distributes them over the optional domain pool.
   Results are merged by task index (see {!Finepar_exec.Pool.map}), so a
   run with a pool is byte-identical to a sequential one. *)
let pmap pool f xs = Pool.map_opt pool ~f xs

type kernel_run = {
  name : string;
  app : string;
  seq_cycles : int;
  par_cycles : int;
  speedup : float;
}

let entry_job ?config ?machine ~cores (e : Registry.entry) =
  Job.make ?machine ?config ~workload:e.Registry.workload ~cores
    e.Registry.kernel

(* The paper's protocol on one registry kernel: a sequential profiling
   run, then the [cores]-way compile fed its counters. *)
let entry_speedup ?config ?machine ~cores e =
  Job.speedup
    (Job.direct ~engine:Engine.default ())
    (entry_job ?config ?machine ~cores e)

(* The same protocol, keeping the parallel compile it measured. *)
let entry_compiled ?config ?machine ~cores e =
  let seq, c, par =
    Job.measured_speedup ~engine:Engine.default
      (Job.direct ~engine:Engine.default ())
      (entry_job ?config ?machine ~cores e)
  in
  (c, float_of_int seq /. float_of_int par)

let run_entry ?config ?machine ~cores (e : Registry.entry) =
  let seq_cycles, par_cycles, speedup =
    entry_speedup ?config ?machine ~cores e
  in
  {
    name = e.Registry.kernel.Kernel.name;
    app = e.Registry.app;
    seq_cycles;
    par_cycles;
    speedup;
  }

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

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
        t1_name = e.Registry.kernel.Kernel.name;
        t1_location = e.Registry.location;
        t1_pct = e.Registry.pct_time;
        t1_measured_ops = Stmt.op_count e.Registry.kernel.Kernel.body;
        t1_trip = Kernel.trip_count e.Registry.kernel;
      })
    Registry.all

(* ------------------------------------------------------------------ *)

(** Fig. 12: per-kernel speedups on 2 and 4 cores. *)
type fig12_row = { f12_name : string; f12_app : string; s2 : float; s4 : float }

let fig12 ?pool ?machine () =
  pmap pool
    (fun (e : Registry.entry) ->
      let r2 = run_entry ?machine ~cores:2 e in
      let r4 = run_entry ?machine ~cores:4 e in
      {
        f12_name = r2.name;
        f12_app = e.Registry.app;
        s2 = r2.speedup;
        s4 = r4.speedup;
      })
    Registry.all

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

let table2 ?pool ?(fig12_rows = []) () =
  let rows = if fig12_rows = [] then fig12 ?pool () else fig12_rows in
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

let table3 ?pool ?machine () =
  pmap pool
    (fun (e : Registry.entry) ->
      let c, speedup = entry_compiled ?machine ~cores:4 e in
      let st = c.Compiler.stats in
      {
        t3_name = e.Registry.kernel.Kernel.name;
        fibers = st.Compiler.initial_fibers;
        deps = st.Compiler.data_deps;
        balance = st.Compiler.load_balance;
        com_ops = st.Compiler.com_ops;
        queues = st.Compiler.queue_pairs_static;
        t3_speedup = speedup;
        paper = e.Registry.paper;
      })
    Registry.all

(* ------------------------------------------------------------------ *)

(** Fig. 13: speedup degradation as the queue transfer latency grows
    from 5 to 20, 50 and 100 cycles (4 cores). *)
type fig13_point = {
  latency : int;
  per_kernel : (string * float) list;
  f13_avg : float;
  no_speedup : int;  (** kernels at or below 1.0x *)
}

let fig13 ?pool ?(latencies = [ 5; 20; 50; 100 ]) ?(queue_len = 20) () =
  (* Flatten the latency × kernel grid into one task list so the pool
     balances across all of it, then regroup per latency. *)
  let tasks =
    List.concat_map
      (fun latency -> List.map (fun e -> (latency, e)) Registry.all)
      latencies
  in
  let runs =
    pmap pool
      (fun (latency, e) ->
        let machine =
          { Config.default with Config.transfer_latency = latency; queue_len }
        in
        let r = run_entry ~machine ~cores:4 e in
        (latency, (r.name, r.speedup)))
      tasks
  in
  List.map
    (fun latency ->
      let per_kernel =
        List.filter_map
          (fun (l, kv) -> if l = latency then Some kv else None)
          runs
      in
      let speeds = List.map snd per_kernel in
      {
        latency;
        per_kernel;
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

let fig14 ?pool ?machine () =
  pmap pool
    (fun (e : Registry.entry) ->
      let base = run_entry ?machine ~cores:4 e in
      let config =
        { (Compiler.default_config ~cores:4 ()) with Compiler.speculation = true }
      in
      let c, speculated = entry_compiled ~config ?machine ~cores:4 e in
      {
        f14_name = base.name;
        base = base.speedup;
        speculated;
        chosen = Float.max base.speedup speculated;
        converted_ifs = c.Compiler.stats.Compiler.speculated_ifs;
      })
    Registry.all

(* ------------------------------------------------------------------ *)

(** Section III-B ablation: the throughput heuristic (merge all cycles so
    partitions have only unidirectional dependences).  The paper measured
    3 kernels improving, 6 degrading, ~11% average slowdown. *)
type ablation_row = { ab_name : string; ab_base : float; ab_variant : float }

let throughput_ablation ?pool ?machine () =
  pmap pool
    (fun (e : Registry.entry) ->
      let base = run_entry ?machine ~cores:4 e in
      let config =
        { (Compiler.default_config ~cores:4 ()) with Compiler.throughput = true }
      in
      let variant = run_entry ~config ?machine ~cores:4 e in
      { ab_name = base.name; ab_base = base.speedup; ab_variant = variant.speedup })
    Registry.all

(** Section III-B: the multi-pair merge variant ("allows faster
    compilation") — quality comparison against single-pair greedy. *)
let multipair_ablation ?pool ?machine () =
  pmap pool
    (fun (e : Registry.entry) ->
      let base = run_entry ?machine ~cores:4 e in
      let config =
        {
          (Compiler.default_config ~cores:4 ()) with
          Compiler.algorithm = `Multi_pair;
        }
      in
      let variant = run_entry ~config ?machine ~cores:4 e in
      { ab_name = base.name; ab_base = base.speedup; ab_variant = variant.speedup })
    Registry.all

(** Section II ablation: hardware queues vs plain shared-cache coupling.
    The paper's queues are the special hardware it proposes; the variant
    lowers every cross-core transfer to a spin-wait valid-flag handshake
    through the ordinary cache hierarchy, quantifying how much of the
    speedup the dedicated queues buy. *)
let comm_mode_ablation ?pool ?machine () =
  pmap pool
    (fun (e : Registry.entry) ->
      let base = run_entry ?machine ~cores:4 e in
      let config =
        {
          (Compiler.default_config ~cores:4 ()) with
          Compiler.comm_mode = Finepar_transform.Comm.Shared_cache;
        }
      in
      let variant = run_entry ~config ?machine ~cores:4 e in
      { ab_name = base.name; ab_base = base.speedup; ab_variant = variant.speedup })
    Registry.all

(** Dual-issue ablation: does fine-grained threading still pay when the
    baseline core is twice as wide?  Both columns are 4-core speedups
    over a sequential baseline on the {e same} machine, so the variant
    pits 4 dual-issue cores against 1 dual-issue core — the paper-era
    question of thread-level vs instruction-level parallelism. *)
let issue_width_ablation ?pool ?machine () =
  let machine = Option.value ~default:Config.default machine in
  pmap pool
    (fun (e : Registry.entry) ->
      let base = run_entry ~machine ~cores:4 e in
      let wide = { machine with Config.issue_width = 2 } in
      let variant = run_entry ~machine:wide ~cores:4 e in
      { ab_name = base.name; ab_base = base.speedup; ab_variant = variant.speedup })
    Registry.all

(* ------------------------------------------------------------------ *)

(** Section III-G: start-up overhead amortization.  The paper argues the
    spawn/barrier overhead is negligible because the loops run many
    iterations; we measure 4-core speedup as the trip count shrinks. *)
let overhead_study ?pool ?machine
    ?(trips = [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]) () =
  let e = Option.get (Registry.find "lammps-1") in
  (* Steady-state cost per iteration, from a long run. *)
  let run_par trip =
    let k = { e.Registry.kernel with Kernel.hi = trip } in
    let config =
      match machine with
      | Some m -> { (Compiler.default_config ~cores:4 ()) with Compiler.machine = m }
      | None -> Compiler.default_config ~cores:4 ()
    in
    let c = Compiler.compile config k in
    (Runner.run ~workload:e.Registry.workload c).Runner.cycles
  in
  let c_big, c_small =
    match pmap pool run_par [ 256; 128 ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let steady = float_of_int (c_big - c_small) /. 128.0 in
  pmap pool
    (fun trip ->
      let cycles = run_par trip in
      let per_iter = float_of_int cycles /. float_of_int trip in
      let overhead = float_of_int cycles -. (steady *. float_of_int trip) in
      (trip, per_iter, Float.max 0.0 overhead))
    trips

(** Queue-capacity ablation: how queue length interacts with transfer
    latency (explains why decoupled pipelines tolerate latency). *)
let queue_capacity_ablation ?pool ?(queue_lens = [ 2; 4; 20 ])
    ?(latencies = [ 5; 50 ]) () =
  let configs =
    List.concat_map
      (fun queue_len -> List.map (fun l -> (queue_len, l)) latencies)
      queue_lens
  in
  let tasks =
    List.concat_map
      (fun cfg -> List.map (fun e -> (cfg, e)) Registry.all)
      configs
  in
  let runs =
    pmap pool
      (fun ((queue_len, latency), e) ->
        let machine =
          { Config.default with Config.queue_len; transfer_latency = latency }
        in
        let r = run_entry ~machine ~cores:4 e in
        ((queue_len, latency), r.speedup))
      tasks
  in
  List.map
    (fun (queue_len, latency) ->
      let speeds =
        List.filter_map
          (fun (cfg, s) -> if cfg = (queue_len, latency) then Some s else None)
          runs
      in
      (queue_len, latency, mean speeds))
    configs

(* ------------------------------------------------------------------ *)

(** Section IV: the characterization funnel over all 51 hot loops. *)
let characterization () =
  Finepar_characterize.Classify.funnel Corpus.all_hot_loops

(* ------------------------------------------------------------------ *)

(** Fig. 11: transfer-latency semantics demo.  Returns, for an early and
    a late dequeue relative to the enqueue, the cycle at which the
    dequeue completed — the early dequeue stalls until
    [enqueue time + transfer latency]. *)
let fig11_demo ?(transfer_latency = 5) () =
  let open Finepar_machine in
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

let smt_study ?pool ?machine () =
  let machine = Option.value ~default:Config.default machine in
  pmap pool
    (fun (e : Registry.entry) ->
      let k = e.Registry.kernel and workload = e.Registry.workload in
      let seq = Compiler.compile_sequential ~machine k in
      let seq_cycles = (Runner.run ~workload seq).Runner.cycles in
      let par =
        Compiler.compile
          { (Compiler.default_config ~cores:4 ()) with Compiler.machine }
          k
      in
      let threads = par.Compiler.stats.Compiler.n_partitions in
      let speed core_map =
        let r = Runner.run ~workload ~core_map par in
        float_of_int seq_cycles /. float_of_int r.Runner.cycles
      in
      {
        smt_name = k.Kernel.name;
        smt_1core = speed (Array.make threads 0);
        smt_2cores = speed (Array.init threads (fun t -> t mod 2));
        smt_4cores = speed (Array.init threads Fun.id);
      })
    Registry.all

(** Queue-count constraint (Section II): mean 4-core speedup as the
    number of usable point-to-point queue pairs shrinks. *)
let queue_limit_study ?pool ?machine ?(limits = [ 12; 6; 4; 2 ]) () =
  let tasks =
    List.concat_map
      (fun limit -> List.map (fun e -> (limit, e)) Registry.all)
      limits
  in
  let runs =
    pmap pool
      (fun (limit, (e : Registry.entry)) ->
        let config =
          {
            (Compiler.default_config ~cores:4 ()) with
            Compiler.max_queue_pairs = Some limit;
          }
        in
        let _, _, s = entry_speedup ?machine ~config ~cores:4 e in
        (limit, s))
      tasks
  in
  List.map
    (fun limit ->
      let speeds =
        List.filter_map (fun (l, s) -> if l = limit then Some s else None) runs
      in
      (limit, mean speeds))
    limits

(** Scaling beyond 4 cores (Section II's grouping discussion): per-kernel
    speedups at 2, 4 and 8 cores. *)
let cores_sweep ?pool ?machine ?(cores = [ 2; 4; 8 ]) () =
  let tasks =
    List.concat_map
      (fun (e : Registry.entry) -> List.map (fun c -> (e, c)) cores)
      Registry.all
  in
  let runs =
    pmap pool
      (fun ((e : Registry.entry), c) ->
        let _, _, s = entry_speedup ?machine ~cores:c e in
        (e.Registry.kernel.Kernel.name, (c, s)))
      tasks
  in
  List.map
    (fun (e : Registry.entry) ->
      let name = e.Registry.kernel.Kernel.name in
      ( name,
        List.filter_map
          (fun (n, cs) -> if String.equal n name then Some cs else None)
          runs ))
    Registry.all

(** The Section IV SIMD aside: static 4-way SIMD speedup estimates per
    kernel (the paper reports 1.17 for irs-1 and 1.90 for umt2k-4, and
    that lammps and sphot are unsuitable). *)
let simd_estimates () =
  List.map
    (fun (e : Registry.entry) ->
      ( e.Registry.kernel.Kernel.name,
        Finepar_characterize.Simd.estimate e.Registry.kernel ))
    Registry.all

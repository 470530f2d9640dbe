(** Drivers for every table and figure in the paper's evaluation
    (Sections II–V) and for the extensions beyond it.  Each function
    returns plain data; the benchmark harness ([bench/main.ml]) renders
    it.

    Every measured section is one grid: a list of variants (core counts,
    machines, compiler options) × the 18 Table I kernels
    ({!Finepar_kernels.Registry.all}), each cell a {!Job} measured with
    the paper's protocol — a sequential profiling run, then the parallel
    compile fed its counters ({!Job.speedup}).  Fig. 12, Table III,
    Fig. 13, Fig. 14, the ablations and the extensions differ only in
    their variant list and in how they fold the cells.  A grid runs as
    one fan-out over [pool] and is regrouped by task index, so a pooled
    run is byte-identical to a sequential one (the CI diffs them). *)

val mean : float list -> float

type table1_row = {
  t1_name : string;
  t1_location : string;
  t1_pct : float;
  t1_measured_ops : int;
  t1_trip : int;
}

val table1 : unit -> table1_row list

type fig12_row = {
  f12_name : string;
  f12_app : string;
  s2 : float;
  s4 : float;
}

(** Fig. 12: per-kernel speedups on 2 and 4 cores. *)
val fig12 : ?pool:Finepar_exec.Pool.t -> unit -> fig12_row list

val fig12_averages : fig12_row list -> float * float

type table2_row = {
  t2_app : string;
  t2_s2 : float;
  t2_s4 : float;
  t2_paper_s2 : float;
  t2_paper_s4 : float;
}

(** Table II: whole-application speedups from the Table I time
    fractions and {!fig12}'s rows, through Amdahl's law. *)
val table2 : fig12_row list -> table2_row list

type table3_row = {
  t3_name : string;
  fibers : int;
  deps : int;
  balance : float;
  com_ops : int;
  queues : int;
  t3_speedup : float;
  paper : Finepar_kernels.Registry.paper_row;
}

(** Table III: the static columns of each kernel's profile-fed 4-core
    compile, beside the speedup of the run that compile gives. *)
val table3 : ?pool:Finepar_exec.Pool.t -> unit -> table3_row list

type fig13_point = {
  latency : int;
  per_kernel : (string * float) list;
  f13_avg : float;
  no_speedup : int;
}

(** Fig. 13: 4-core speedups at transfer latencies 5, 20, 50 and 100. *)
val fig13 : ?pool:Finepar_exec.Pool.t -> unit -> fig13_point list

type fig14_row = {
  f14_name : string;
  base : float;
  speculated : float;
  chosen : float;
  converted_ifs : int;
}

(** Fig. 14: 4-core speedups without and with control-flow
    speculation. *)
val fig14 : ?pool:Finepar_exec.Pool.t -> unit -> fig14_row list

type ablation_row = {
  ab_name : string;
  ab_base : float;
  ab_variant : float;
}

(** [ablation variant]: per-kernel 4-core speedups under
    [Compiler.default_config ~cores:4 ()] ([ab_base]) and under
    [variant] of it ([ab_variant]).  The machine is the configuration's
    [machine] field, so a variant can change the compiler (the
    Section III-B throughput heuristic and multi-pair merge, Section II's
    shared-cache coupling) or the machine (dual-issue cores). *)
val ablation :
  ?pool:Finepar_exec.Pool.t ->
  (Compiler.config -> Compiler.config) ->
  ablation_row list

(** Section III-G: lammps-1 on 4 cores at trip counts 1 to 256:
    [(trip, cycles per iteration, cycles above the steady state)]. *)
val overhead_study :
  ?pool:Finepar_exec.Pool.t -> unit -> (int * float * float) list

(** Mean 4-core speedup per [(queue length, transfer latency)] over
    lengths 2, 4, 20 × latencies 5, 50. *)
val queue_capacity_ablation :
  ?pool:Finepar_exec.Pool.t -> unit -> (int * int * float) list

(** Section IV: the characterization funnel over all 51 hot loops. *)
val characterization : unit -> Finepar_characterize.Classify.funnel

(** Fig. 11: [(transfer latency, (enqueue, dequeue) cycles)] for an
    early and a late dequeue on a hand-built two-core program. *)
val fig11_demo : unit -> int * (int * int) list

type smt_row = {
  smt_name : string;
  smt_1core : float;
  smt_2cores : float;
  smt_4cores : float;
}

(** SMT (Section II future work): one 4-core compile per kernel, run
    with its threads on 1, 2 and 4 physical cores. *)
val smt_study : ?pool:Finepar_exec.Pool.t -> unit -> smt_row list

(** Mean 4-core speedup at 12, 6, 4 and 2 usable queue pairs. *)
val queue_limit_study : ?pool:Finepar_exec.Pool.t -> unit -> (int * float) list

(** Per-kernel speedups at 2, 4 and 8 cores. *)
val cores_sweep :
  ?pool:Finepar_exec.Pool.t -> unit -> (string * (int * float) list) list

val simd_estimates : unit -> (string * Finepar_characterize.Simd.report) list

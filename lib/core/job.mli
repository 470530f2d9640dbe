(** Job evaluation: the one place that turns a job description into a
    measured run.

    A job names a kernel, a compiler configuration, where its hardware
    threads sit and which data it runs on, plus the profile feedback
    (per-array load and miss counters) of an earlier sequential run —
    the paper's profiling protocol (Sections III-B and III-I).  The chain
    is {!compile} then {!run}; every caller — the CLI, the experiment
    drivers, the autotuning search and the service's miss path — goes
    through it, so direct and cached evaluations agree by construction.

    An {!evaluator} measures a batch of jobs.  {!direct} computes in
    process; the service evaluator ([Finepar_tune.Service_eval]) sends
    the same jobs through the content-addressed result cache.  The two
    protocols, {!speedup} and {!autotune}, run over either. *)

(** SMT thread placement: which physical core each hardware thread of a
    compiled program runs on. *)
type placement = Identity | Single_core | Mod2 | Div2

val materialize : placement -> int -> int array
(** [materialize p n] is the simulator [core_map] for [n] hardware
    threads. *)

(** Workload arrays: derived from a splitmix64 seed
    ({!Finepar_kernels.Workload.default}) or carried explicitly (the
    registry's fixed workloads). *)
type workload = Seeded of int | Explicit of Finepar_ir.Eval.workload

(** One unit of compile work plus everything that parameterizes it. *)
type t = {
  kernel : Finepar_ir.Kernel.t;
  config : Compiler.config;
  sequential : bool;
      (** compile with {!Compiler.compile_sequential} (the speedup
          baseline) instead of the full pipeline *)
  placement : placement;
  workload : workload;
  profile_counters : (string * int * int) list;
      (** per-array (name, loads, L1 misses) profile feedback; [[]]
          means no feedback (all hits) *)
}

val make :
  ?machine:Finepar_machine.Config.t ->
  ?config:Compiler.config ->
  ?workload:Finepar_ir.Eval.workload ->
  cores:int ->
  Finepar_ir.Kernel.t ->
  t
(** A parallel job on an explicit workload (default [[]]) with identity
    placement and no profile feedback.  Its configuration is [config]
    (default {!Compiler.default_config}) with [machine] (default
    {!Finepar_machine.Config.default}) and [cores] put in. *)

(** {2 The chain} *)

val compile : t -> Compiler.compiled
(** Profile counters → configuration → {!Compiler.compile}, or
    {!Compiler.compile_sequential} on the configuration's machine for a
    sequential job. *)

val run : engine:Finepar_machine.Engine.t -> t -> Compiler.compiled -> Runner.run
(** Placement → workload → {!Runner.run} with checking on.  [compiled]
    must be [compile job]. *)

val eval : engine:Finepar_machine.Engine.t -> t -> Runner.run
(** [run ~engine job (compile job)]. *)

(** {2 Evaluators} *)

(** One measurement: simulated cycles plus per-array load counters, or
    the [Printexc.to_string] rendering of the pipeline exception. *)
type measure = (int * (string * int * int) list, string) result

type evaluator = t list -> measure list
(** Measures one batch of jobs, results in request order.  Every
    evaluator returns the same measures, error strings included. *)

val direct :
  ?pool:Finepar_exec.Pool.t ->
  engine:Finepar_machine.Engine.t ->
  unit ->
  evaluator
(** In-process evaluation, fanned out over [pool].  Each run is reduced
    to its measure inside its pool task, so a batch never holds whole
    {!Runner.run} values. *)

(** {2 Protocols} *)

exception Failed of string
(** A protocol step measured an error; the payload is its rendering. *)

val profile : evaluator -> t -> int * (string * int * int) list
(** [profile ev job] measures the sequential version of [job] with no
    feedback: its cycles and the per-array load counters that the
    parallel compile takes as [profile_counters].
    @raise Failed if the run errors. *)

val speedup : evaluator -> t -> int * int * float
(** [speedup ev job] measures the sequential version of [job], then
    [job] itself carrying the sequential run's load counters as profile
    feedback.  Returns [(sequential cycles, parallel cycles, speedup)].
    @raise Failed if either run errors. *)

val measured_speedup :
  engine:Finepar_machine.Engine.t ->
  evaluator ->
  t ->
  int * Compiler.compiled * int
(** [measured_speedup ~engine ev job] is {!speedup}'s protocol keeping
    the parallel compile it measured: the sequential cycles (measured by
    [ev]), the compile of [job] fed that run's load counters, and its
    cycles (run in process under [engine]).  The cycles are the ones
    {!speedup} measures.
    @raise Failed if either run errors. *)

val autotune_candidates : Compiler.config -> (string * Compiler.config) list
(** The fixed candidate enumeration behind {!autotune} — sequential,
    baseline, speculation, throughput, their combination, and multi-pair
    merge, all derived from [base].  The search's generation 0 starts
    from the same list. *)

val compare_candidates :
  int * Compiler.config -> int * Compiler.config -> int
(** Deterministic candidate ordering: fewer cycles first, then the
    simpler configuration — fewer cores; speculation off before on;
    throughput off before on; [`Greedy] before [`Multi_pair]; lower
    transfer latency; shorter queues; then the remaining knobs (weights,
    max height, max queue pairs).  Candidates that still compare equal
    are observationally identical, and selection keeps the earlier one —
    so a parallel search merge reproduces the same winner at any [-j]. *)

val autotune : evaluator -> t -> string * int * (string * int) list
(** Multi-version compilation with dynamic feedback.  Section III-I
    (limitation 1): the compiler "can generate multiple code versions
    for regions with potential, and rely on a runtime system with
    dynamic feedback to decide which code version to execute".
    [autotune ev job] measures the sequential version of [job], then
    {!autotune_candidates} of [job.config] as one batch carrying its
    load counters, and keeps the fastest under {!compare_candidates}.
    Returns [(best name, best cycles, (candidate, cycles) list)].
    @raise Failed if any run errors. *)

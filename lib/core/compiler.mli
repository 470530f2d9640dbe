(** The end-to-end compiler pipeline (Section III).

    [compile config kernel] runs, in order: control-flow speculation
    (III-H, optional), expression flattening and predicate extraction
    (III-A pre-processing / III-E), fiber partitioning (III-A), dependence
    analysis, code-graph construction and heuristic merging (III-B), global
    scheduling with send-early/receive-late priorities (III-B), outlining
    with communication insertion, conditional-structure replication and
    live-variable copies (III-C..F), and machine-code generation including
    the runtime driver protocol (III-G). *)

type config = {
  cores : int;  (** hardware cores (threads) available to the region *)
  max_height : int;
      (** expression-tree height bound before splitting (the III-A
          pre-processing granularity knob) *)
  algorithm : Finepar_partition.Merge.algorithm;
      (** [`Greedy] single-pair merging, or the faster [`Multi_pair] *)
  throughput : bool;
      (** the unidirectional-dependence ("throughput") heuristic, III-B *)
  max_queue_pairs : int option;
      (** constrain partitioning to at most this many point-to-point
          queues (Section II) *)
  speculation : bool;  (** rollback-free control-flow speculation, III-H *)
  weights : Finepar_partition.Affinity.weights;
      (** relative strengths of the three merge-affinity heuristics *)
  profile : Finepar_analysis.Profile.t;
      (** memory-latency feedback for the static cost model *)
  machine : Finepar_machine.Config.t;  (** target machine parameters *)
  comm_mode : Finepar_transform.Comm.mode;
      (** how cross-core transfers are realized: dedicated hardware
          queues (the paper's model, the default) or a valid-flag
          handshake through the shared cache *)
}

(** The paper's evaluation configuration: greedy merging, no speculation,
    default machine, no profile feedback. *)
val default_config : ?cores:int -> unit -> config

(** Static characteristics of one compilation — the columns of Table III
    (the speedup column comes from {!Runner}). *)
type stats = {
  initial_fibers : int;  (** fibers found before merging, Table III *)
  data_deps : int;  (** data-dependence edges between fibers, Table III *)
  load_balance : float;  (** max ops / min ops over partitions, Table III *)
  com_ops : int;  (** enqueue + dequeue operations inserted, Table III *)
  queue_pairs_static : int;  (** distinct (src, dst) pairs used, Table III *)
  n_partitions : int;  (** final partitions (may be fewer than cores) *)
  merge_steps : int;  (** union operations performed by the merge *)
  speculated_ifs : int;  (** conditionals converted by speculation *)
}

(** A fully compiled kernel, carrying every intermediate stage for
    inspection (the CLI's [show] subcommand prints them). *)
type compiled = {
  kernel : Finepar_ir.Kernel.t;  (** post-speculation kernel *)
  source : Finepar_ir.Kernel.t;  (** the kernel as written *)
  config : config;
  region : Finepar_ir.Region.t;  (** fiber-split region (one stmt/fiber) *)
  deps : Finepar_analysis.Deps.t;
  cluster_of : int array;  (** fiber id -> partition (core) *)
  order : int list;  (** the global fiber schedule *)
  comm : Finepar_transform.Comm.t;
      (** the transfer plan the static verifier checks against *)
  code : Finepar_codegen.Lower.t;  (** machine program + metadata *)
  stats : stats;
}

val pp_stats : Format.formatter -> stats -> unit

(** Run the whole pipeline, ending with the static queue-protocol
    verifier (pass "verify") over the lowered program and the comm plan.
    Raises {!Finepar_ir.Kernel.Invalid},
    {!Finepar_analysis.Deps.Unsupported} or
    {!Finepar_codegen.Lower.Codegen_error} on malformed input, and
    {!Finepar_verify.Verify.Rejected} when the generated code violates
    the queue protocol (a compiler bug, surfaced as a structured error
    with the offending queue/core/pc). *)
val compile : config -> Finepar_ir.Kernel.t -> compiled

(** Compile for sequential execution on one core — the baseline of every
    speedup in the paper. *)
val compile_sequential :
  ?machine:Finepar_machine.Config.t -> Finepar_ir.Kernel.t -> compiled

(** The end-to-end compiler pipeline (Section III).

    [compile config kernel] runs, in order: control-flow speculation
    (III-H, optional), expression flattening and predicate extraction
    (III-A pre-processing / III-E), fiber partitioning (III-A), dependence
    analysis, code-graph construction and heuristic merging (III-B), global
    scheduling with send-early/receive-late priorities (III-B), outlining
    with communication insertion, conditional-structure replication and
    live-variable copies (III-C..F), and machine-code generation including
    the runtime driver protocol (III-G). *)

open Finepar_ir
open Finepar_analysis
open Finepar_fiber
open Finepar_partition
open Finepar_transform
open Finepar_codegen
open Finepar_machine
module Verify = Finepar_verify.Verify

type config = {
  cores : int;
  max_height : int;  (** expression-tree height bound before splitting *)
  algorithm : Merge.algorithm;
  throughput : bool;  (** the unidirectional-dependence heuristic (III-B) *)
  max_queue_pairs : int option;
      (** constrain partitioning to use at most this many point-to-point
          queues (Section II) *)
  speculation : bool;
  weights : Affinity.weights;
  profile : Profile.t;  (** memory-latency feedback for the cost model *)
  machine : Config.t;
  comm_mode : Comm.mode;
      (** how cross-core transfers are realized: hardware queues or a
          valid-flag handshake through the shared cache *)
}

let default_config ?(cores = 4) () =
  {
    cores;
    max_height = Region.default_max_height;
    algorithm = `Greedy;
    throughput = false;
    max_queue_pairs = None;
    speculation = false;
    weights = Affinity.default;
    profile = Profile.all_hits;
    machine = Config.default;
    comm_mode = Comm.Queues;
  }

(** Static characteristics of one compilation — the columns of Table III
    (the speedup column comes from {!Runner}). *)
type stats = {
  initial_fibers : int;
  data_deps : int;
  load_balance : float;
  com_ops : int;
  queue_pairs_static : int;
  n_partitions : int;
  merge_steps : int;
  speculated_ifs : int;
}

type compiled = {
  kernel : Kernel.t;  (** post-speculation kernel *)
  source : Kernel.t;  (** the kernel as written *)
  config : config;
  region : Region.t;  (** fiber-split region *)
  deps : Deps.t;
  cluster_of : int array;
  order : int list;
  comm : Comm.t;  (** the transfer plan the verifier checks against *)
  code : Lower.t;
  stats : stats;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "fibers=%d deps=%d balance=%.2f com_ops=%d queues=%d partitions=%d"
    s.initial_fibers s.data_deps s.load_balance s.com_ops
    s.queue_pairs_static s.n_partitions

let compile (config : config) (kernel : Kernel.t) =
  (* One enclosing span per compilation; with a tracer installed, each
     pass is a span (category "pass") nested under it, and with none
     installed a span costs one atomic load. *)
  Finepar_telemetry.Tracer.with_span ~cat:"compile"
    ~args:
      [
        ("kernel", Finepar_telemetry.Json.String kernel.Kernel.name);
        ("cores", Finepar_telemetry.Json.Int config.cores);
      ]
    ("compile " ^ kernel.Kernel.name)
  @@ fun () ->
  let timed name f = Finepar_telemetry.Tracer.with_span ~cat:"pass" name f in
  let kernel', speculated_ifs =
    timed "speculate" (fun () ->
        if config.speculation then Speculate.apply kernel else (kernel, 0))
  in
  let region0 =
    timed "flatten" (fun () ->
        Region.of_kernel ~max_height:config.max_height kernel')
  in
  let region, fstats = timed "fiber-split" (fun () -> Fiber.split region0) in
  let deps = timed "deps" (fun () -> Deps.analyze region) in
  let graph =
    timed "code-graph" (fun () ->
        Code_graph.build ~profile:config.profile region deps)
  in
  let merge =
    timed "merge" (fun () ->
        Merge.run ~algorithm:config.algorithm ~throughput:config.throughput
          ?max_queue_pairs:config.max_queue_pairs ~weights:config.weights
          ~cores:config.cores graph)
  in
  let order =
    timed "schedule" (fun () ->
        Schedule.order graph ~cluster_of:merge.Merge.cluster_of)
  in
  let comm =
    timed "comm" (fun () ->
        Comm.compute ~region ~deps ~cluster_of:merge.Merge.cluster_of ~order
          ~queue_len:config.machine.Config.queue_len)
  in
  let code =
    timed "lower" (fun () ->
        Lower.generate ~kernel:kernel' ~region ~deps
          ~cluster_of:merge.Merge.cluster_of ~n_clusters:merge.Merge.n_clusters
          ~order ~comm ~mode:config.comm_mode
          ~line_size:config.machine.Config.l1_line ())
  in
  (* Static comm-protocol verification: reject miscompiled comm before
     a single cycle is simulated. *)
  let verification =
    timed "verify" (fun () ->
        Verify.run ~plan:comm ~mode:config.comm_mode
          ~queue_len:config.machine.Config.queue_len code.Lower.program)
  in
  if not (Verify.ok verification) then
    raise (Verify.Rejected (kernel.Kernel.name, verification.Verify.violations));
  (* Queue-capacity warnings describe the hardware-queue realization. *)
  if config.comm_mode = Comm.Queues then
    List.iter (fun w -> Logs.warn (fun m -> m "%s: %s" kernel.Kernel.name w))
      comm.Comm.warnings;
  {
    kernel = kernel';
    source = kernel;
    config;
    region;
    deps;
    cluster_of = merge.Merge.cluster_of;
    order;
    comm;
    code;
    stats =
      {
        initial_fibers = fstats.Fiber.initial_fibers;
        data_deps = Deps.data_dep_count deps;
        load_balance = Merge.load_balance graph merge;
        com_ops = comm.Comm.com_ops;
        queue_pairs_static = List.length comm.Comm.pairs_used;
        n_partitions = merge.Merge.n_clusters;
        merge_steps = merge.Merge.merge_steps;
        speculated_ifs;
      };
  }

(** Compile for sequential execution on one core (the baseline of all the
    paper's speedups). *)
let compile_sequential ?(machine = Config.default) kernel =
  compile { (default_config ~cores:1 ()) with machine } kernel

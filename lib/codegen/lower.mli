(** Lowering of partitioned, scheduled regions to machine code.

    One function per core is produced, mirroring the paper's outlining
    (Section III-C): core 0 carries the primary thread (the "original
    function"), cores 1..k-1 carry outlined functions run by the runtime
    driver of Section III-G.  Conditional structure is replicated on every
    core that holds predicated statements (Section III-E): branch and
    label instructions are regenerated from the flat predicate contexts.

    Item placement per core follows the global schedule; dequeues are
    ordered by their matching enqueue's global position and hoisted with a
    suffix-min so that (a) per-queue FIFO order matches the producer, and
    (b) a transferred predicate value is always dequeued before anything
    guarded by it. *)

exception Codegen_error of string

type t = {
  program : Finepar_machine.Program.t;
  cores_used : int;
  live_out_regs : (string * Finepar_machine.Isa.reg) list;
  com_ops : int;
  queue_pairs_static : int;
  warnings : string list;
}
val generate :
  kernel:Finepar_ir.Kernel.t ->
  region:Finepar_ir.Region.t ->
  deps:Finepar_analysis.Deps.t ->
  cluster_of:int array ->
  n_clusters:int ->
  order:int list ->
  comm:Finepar_transform.Comm.t ->
  ?mode:Finepar_transform.Comm.mode -> line_size:int -> unit -> t
(** [mode] (default [Queues]) selects the transfer realization; in
    [Shared_cache] mode transfers lower to valid-flag handshakes over
    synthetic arrays appended after the kernel's arrays, and the driver
    protocol (spawn, entry values, live-outs, completion and halt
    tokens) stays on queues. *)

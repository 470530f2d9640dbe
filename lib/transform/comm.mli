(** Communication insertion (Section III-D).

    For every data or control dependence edge whose endpoints were
    partitioned onto different cores, a value transfer is created: one
    enqueue after the producing fiber, one dequeue before the first
    consuming fiber on each consuming core.

    Anchors are positions in the single global fiber schedule, which keeps
    the enqueue and dequeue sequences of every queue mutually consistent.
    The code generator finalizes dequeue placement per consuming core: it
    orders all dequeues by enqueue anchor and hoists each so that none is
    delayed past another (suffix-min of consumer anchors), which preserves
    per-queue FIFO order and guarantees a transferred predicate value is
    dequeued before any dequeue or statement guarded by it. *)

type mode = Queues | Shared_cache
(** How transfers are realized: dedicated hardware queues (the paper's
    model) or a valid-flag handshake through the shared L2 / private L1
    hierarchy (Desai's cache-coupled threads). *)

val mode_name : mode -> string
val mode_of_name : string -> mode option

val flag_array_name : string
(** Reserved synthetic arrays appended to the layout in
    [Shared_cache] mode. *)

val i64_array_name : string
val f64_array_name : string

val is_comm_array_name : string -> bool
(** True for the reserved ["__comm_"]-prefixed array names. *)

type transfer = {
  var : string;
  ty : Finepar_ir.Types.ty;
  src_core : int;
  dst_core : int;
  preds : Finepar_ir.Region.pred list;
  enq_anchor : int;
  deq_anchor : int;
  seq : int;
}
type t = {
  transfers : transfer list;
  com_ops : int;
  pairs_used : (int * int) list;
  warnings : string list;
}

type slot = { sl_flag : int; sl_data : int }
(** Handshake slots of one transfer in [Shared_cache] mode: [sl_flag]
    indexes the flag array (unique per transfer), [sl_data] the data
    array of the transfer's value class. *)

val shared_slots : t -> (transfer * slot) list
(** Canonical slot assignment, derived deterministically from the
    plan's canonical transfer order; the code generator and the static
    verifier both use this function. *)

val placement : t -> core:int -> ((int * int * int) * bool * transfer) list
(** [core]'s enqueues ([true]) and dequeues ([false]), each with its
    in-loop sort key [(anchor, phase, tiebreak)]: enqueues at phase 2
    after their producing fiber, dequeues at phase 0 in producer order,
    hoisted with a suffix-min.  Fibers sort at phase 1 between them.
    The code generator places communication by these keys and the static
    verifier checks the lowered program against them. *)

val shared_slot_counts : t -> int * int * int
(** (flag slots, i64 data slots, f64 data slots) the plan needs. *)

val compute :
  region:Finepar_ir.Region.t ->
  deps:Finepar_analysis.Deps.t ->
  cluster_of:int array -> order:int list -> queue_len:int -> t

(** Machine parameters.

    Defaults model the evaluation platform of Section V: in-order A2-like
    cores, queue length 20 slots, queue transfer latency 5 cycles
    (Figure 13 sweeps it to 20, 50 and 100), enqueue/dequeue occupying one
    pipeline slot. *)

type t = {
  queue_len : int;
  transfer_latency : int;
  l1_bytes : int;
  l1_line : int;
  l2_bytes : int;
  l1_hit : int;
  l2_hit : int;
  mem_latency : int;
  branch_taken_penalty : int;
  deq_latency : int;
  max_cycles : int;
  issue_width : int;
}
val default : t
val with_transfer_latency : int -> t -> t

(** Stall reasons, shared between the simulator and the exporters. *)

type t =
  | Operand  (** an input register's result is not ready yet *)
  | Queue_full of int  (** enqueue blocked; payload is the queue id *)
  | Queue_empty of int
      (** dequeue blocked (empty, or head still in transfer); queue id *)

(** Dense class index (queue id erased): 0 = operand, 1 = queue full,
    2 = queue empty. *)
val class_index : t -> int

val n_classes : int

val to_string : t -> string

(** The queue involved, if any. *)
val queue_of : t -> int option

val equal : t -> t -> bool

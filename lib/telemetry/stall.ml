(** Stall reasons, shared between the simulator and the exporters.

    Replaces the simulator's former string-typed reasons: a variant can be
    matched exhaustively, carries the queue id for queue stalls, and maps
    onto a small dense class index for per-class counters and histograms. *)

type t =
  | Operand  (** an input register's result is not ready yet *)
  | Queue_full of int  (** enqueue blocked; payload is the queue id *)
  | Queue_empty of int
      (** dequeue blocked (empty, or head still in transfer); queue id *)

(** Dense class index (queue id erased): 0 = operand, 1 = queue full,
    2 = queue empty.  Used to bucket per-class counters. *)
let class_index = function
  | Operand -> 0
  | Queue_full _ -> 1
  | Queue_empty _ -> 2

let n_classes = 3

let to_string = function
  | Operand -> "operand"
  | Queue_full q -> Printf.sprintf "queue-full q%d" q
  | Queue_empty q -> Printf.sprintf "queue-empty q%d" q

(** The queue involved, if any. *)
let queue_of = function
  | Operand -> None
  | Queue_full q | Queue_empty q -> Some q

let equal (a : t) (b : t) = a = b

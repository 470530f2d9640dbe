(** A bounded ring buffer with O(1) push; overwrites the oldest element
    when full and counts how many were dropped. *)

type 'a t

(** [create ~capacity] makes an empty ring.  A zero-capacity ring drops
    every push (and counts them). *)
val create : capacity:int -> 'a t

val length : 'a t -> int

(** Elements overwritten (or refused, for capacity 0) so far. *)
val dropped : 'a t -> int

val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val clear : 'a t -> unit

(** Oldest-first. *)
val iter : ('a -> unit) -> 'a t -> unit

val fold : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

(** Contents oldest-first. *)
val to_list : 'a t -> 'a list

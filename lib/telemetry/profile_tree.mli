(** Self-time / total-time profiles aggregated from {!Tracer} spans by
    name path, with a sorted hot list. *)

type node = {
  name : string;
  count : int;  (** spans folded into this node *)
  total : float;  (** summed wall-clock seconds *)
  self : float;  (** total minus children's totals, clamped at 0 *)
  children : node list;  (** sorted by total, descending *)
}

(** Aggregate a span list into a forest (one root per distinct root
    span name). *)
val of_spans : Tracer.span list -> node list

val total_seconds : node list -> float

(** Structural invariant: children's totals (and self times) never sum
    past their parent's total, up to 1 ns of clock jitter per node. *)
val well_formed : node list -> bool

(** Flattened ("a/b/c", count, total, self) rows, sorted by self time
    descending. *)
val hot_list : node list -> (string * int * float * float) list

val to_json : node list -> Json.t

(** Tree render plus the 10 hottest-by-self rows. *)
val pp : Format.formatter -> node list -> unit

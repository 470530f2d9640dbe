(** A typed metrics registry: counters, gauges and integer histograms
    registered under (name, labels); find-or-create semantics. *)

type labels = (string * string) list

type counter
type gauge

type value =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Histogram.t

type sample = { name : string; labels : labels; value : value }

type t

val create : unit -> t

(** Find-or-create.  Raises [Invalid_argument] if (name, labels) is
    already registered as a different kind. *)
val counter : t -> ?labels:labels -> string -> counter

val gauge : t -> ?labels:labels -> string -> gauge
val histogram : t -> ?labels:labels -> bounds:int array -> string -> Histogram.t

(** Counters only increase; [incr ~by] with negative [by] raises. *)
val incr : ?by:int -> counter -> unit

val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** Samples in registration order. *)
val samples : t -> sample list

(** CSV with header [name,labels,kind,value,count,sum,min,max]. *)
val to_csv : t -> string

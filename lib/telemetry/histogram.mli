(** Fixed-bucket integer histograms (Prometheus-style: increasing
    inclusive upper bounds plus an implicit overflow bucket). *)

type t

(** [create ~bounds] with strictly increasing inclusive upper bounds;
    raises [Invalid_argument] on an empty or non-increasing array. *)
val create : bounds:int array -> t

(** Upper bounds 1, 2, 4, ... doubling [n] times. *)
val exponential_bounds : int -> int array

(** Upper bounds 1, 2, ..., [n]. *)
val linear_bounds : int -> int array

(** Rebuild a histogram from serialized parts — the inverse of reading
    back {!buckets} (without the overflow sentinel bound), {!sum},
    {!min_value} and {!max_value}.  [counts] must have length
    [Array.length bounds + 1] (the overflow bucket); raises
    [Invalid_argument] on a length mismatch or when [min_value]/
    [max_value] presence disagrees with the counts being all zero. *)
val restore :
  bounds:int array ->
  counts:int array ->
  sum:int ->
  min_value:int option ->
  max_value:int option ->
  t

val observe : t -> int -> unit
val count : t -> int
val sum : t -> int
val min_value : t -> int option
val max_value : t -> int option

(** [percentile t q] for [q] in [0, 100]: the inclusive upper bound of
    the bucket holding the rank-[ceil (q/100 * count)] observation,
    clamped into [[min_value, max_value]] (so a single-sample histogram
    reports its one value at every percentile and the overflow bucket
    reports the observed maximum).  [None] on an empty histogram;
    raises [Invalid_argument] outside [0, 100]. *)
val percentile : t -> float -> int option

(** (inclusive upper bound, count) per bucket, overflow reported with
    bound [max_int]. *)
val buckets : t -> (int * int) list

(** Sum of all bucket counts; always equals [count]. *)
val bucket_total : t -> int

val to_json : t -> Json.t

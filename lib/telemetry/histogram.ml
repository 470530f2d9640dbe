(** Fixed-bucket integer histograms.

    Buckets are defined by an increasing array of inclusive upper bounds
    plus an implicit overflow bucket, mirroring the Prometheus histogram
    layout.  [observe] is O(log buckets), cheap enough for the simulator's
    hot path (queue occupancy is sampled on every enqueue). *)

type t = {
  bounds : int array;  (** strictly increasing inclusive upper bounds *)
  counts : int array;  (** length = Array.length bounds + 1 (overflow) *)
  mutable count : int;  (** total observations *)
  mutable sum : int;  (** sum of observed values *)
  mutable min : int;
  mutable max : int;
}

let create ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Histogram.create: no buckets";
  for i = 1 to n - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Histogram.create: bounds must be strictly increasing"
  done;
  {
    bounds = Array.copy bounds;
    counts = Array.make (n + 1) 0;
    count = 0;
    sum = 0;
    min = max_int;
    max = min_int;
  }

(** Upper bounds 1, 2, 4, ... doubling [n] times — the natural scale for
    cycle durations. *)
let exponential_bounds n =
  if n <= 0 then invalid_arg "Histogram.exponential_bounds";
  Array.init n (fun i -> 1 lsl i)

(** Upper bounds 1, 2, ..., [n] — the natural scale for queue occupancy,
    which is capped at the queue length. *)
let linear_bounds n =
  if n <= 0 then invalid_arg "Histogram.linear_bounds";
  Array.init n (fun i -> i + 1)

(* Rebuild a histogram from its serialized parts (see {!Service.Wire}):
   the caller supplies exactly what [buckets]/[sum]/[min_value]/[max_value]
   expose, so [restore (decompose t)] observes the same state as [t]. *)
let restore ~bounds ~counts ~sum:s ~min_value:mn ~max_value:mx =
  let n = Array.length bounds in
  if Array.length counts <> n + 1 then
    invalid_arg "Histogram.restore: counts must have length bounds + 1";
  let t = create ~bounds in
  Array.blit counts 0 t.counts 0 (n + 1);
  t.count <- Array.fold_left ( + ) 0 counts;
  t.sum <- s;
  (match mn with Some v -> t.min <- v | None -> ());
  (match mx with Some v -> t.max <- v | None -> ());
  if (t.count = 0) <> (mn = None && mx = None) then
    invalid_arg "Histogram.restore: min/max inconsistent with counts";
  t

(* Index of the first bucket whose bound is >= v (binary search), or the
   overflow bucket. *)
let bucket_index t v =
  let n = Array.length t.bounds in
  if v > t.bounds.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bounds.(mid) >= v then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe t v =
  let i = bucket_index t v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then None else Some t.min
let max_value t = if t.count = 0 then None else Some t.max

(* Prometheus-style quantile estimate over the bucket layout: the
   inclusive upper bound of the first bucket holding the rank-th
   observation, clamped into [min, max] so degenerate histograms stay
   exact — a single-sample histogram reports its one value at every
   percentile, and the overflow bucket (bound [max_int]) reports the
   observed maximum instead of infinity. *)
let percentile t q =
  if Float.is_nan q || q < 0. || q > 100. then
    invalid_arg "Histogram.percentile: q outside [0, 100]";
  if t.count = 0 then None
  else begin
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int t.count)))
    in
    let n = Array.length t.bounds in
    let rec go i cum =
      let cum = cum + t.counts.(i) in
      if cum >= rank || i = n then
        if i < n then t.bounds.(i) else max_int
      else go (i + 1) cum
    in
    Some (Stdlib.min t.max (Stdlib.max t.min (go 0 0)))
  end

(** (inclusive upper bound, count) per bucket; the overflow bucket is
    reported with bound [max_int]. *)
let buckets t =
  Array.to_list
    (Array.mapi
       (fun i c ->
         ((if i < Array.length t.bounds then t.bounds.(i) else max_int), c))
       t.counts)

(** Sum of all bucket counts; always equals [count]. *)
let bucket_total t = Array.fold_left ( + ) 0 t.counts

let to_json t =
  let pct q =
    match percentile t q with None -> Json.Null | Some v -> Json.Int v
  in
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("sum", Json.Int t.sum);
      ("min", if t.count = 0 then Json.Null else Json.Int t.min);
      ("max", if t.count = 0 then Json.Null else Json.Int t.max);
      ("p50", pct 50.);
      ("p90", pct 90.);
      ("p99", pct 99.);
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) ->
               Json.Obj
                 [
                   ( "le",
                     if le = max_int then Json.String "+inf" else Json.Int le );
                   ("count", Json.Int c);
                 ])
             (buckets t)) );
    ]

(** A direct-mapped cache model (tags only; data values live in the flat
    simulator memory, the cache decides latency).

    Tags are kept only for the sets a program can reach: every access is
    below [span] bytes (the end of the highest array), so a block index
    is below [ceil (span / line)] and [block mod sets] never lands past
    [min sets (ceil (span / line))] -- the hits and misses are those of
    the full [sets]-entry array. *)

type t = { line : int; sets : int; tags : int array }

let create ~bytes ~line ~span =
  let sets = max 1 (bytes / line) in
  { line; sets; tags = Array.make (min sets ((span + line - 1) / line)) (-1) }

let set_and_tag t addr =
  let block = addr / t.line in
  (block mod t.sets, block)

(** Probe and fill: returns whether the access hit. *)
let access t addr =
  let s, tag = set_and_tag t addr in
  if t.tags.(s) = tag then true
  else begin
    t.tags.(s) <- tag;
    false
  end

let invalidate t addr =
  let s, tag = set_and_tag t addr in
  if t.tags.(s) = tag then t.tags.(s) <- -1

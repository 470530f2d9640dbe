(** A bounded ring buffer.

    Replaces the simulator's unbounded (and O(n)-prepend) [event list]
    trace: pushes are O(1), memory is capped at [capacity] elements, and
    once full the oldest element is overwritten.  The number of overwritten
    (dropped) elements is tracked so exporters can report truncation
    instead of silently pretending the trace is complete. *)

type 'a t = {
  slots : 'a option array;
  mutable head : int;  (** next write position *)
  mutable length : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Ring.create: negative capacity";
  { slots = Array.make capacity None; head = 0; length = 0; dropped = 0 }

let length t = t.length

let dropped t = t.dropped

let is_empty t = t.length = 0

let push t x =
  let cap = Array.length t.slots in
  if cap = 0 then t.dropped <- t.dropped + 1
  else begin
    if t.length = cap then t.dropped <- t.dropped + 1
    else t.length <- t.length + 1;
    t.slots.(t.head) <- Some x;
    t.head <- (t.head + 1) mod cap
  end

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.head <- 0;
  t.length <- 0;
  t.dropped <- 0

(** Oldest-first traversal. *)
let iter f t =
  let cap = Array.length t.slots in
  if t.length > 0 then
    let start = (t.head - t.length + cap) mod cap in
    for i = 0 to t.length - 1 do
      match t.slots.((start + i) mod cap) with
      | Some x -> f x
      | None -> assert false
    done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

(** Contents oldest-first. *)
let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)

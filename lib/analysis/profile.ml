(** Profile feedback for the static cost model.

    The paper's compiler "uses profile feedback data for memory access miss
    latencies" (Section III-B) because it cannot predict memory delays
    statically (Section III-I, limitation 3).  We reproduce the mechanism:
    a profile maps each array to an L1 miss rate, typically collected from
    a sequential simulator run ({!Finepar_machine.Sim} exposes the
    counters), and the cost model prices loads with it. *)

type t = {
  miss_rate : string -> float;  (** array name -> fraction of loads missing L1 *)
  hit_latency : int;
  miss_latency : int;
}

(** A profile that assumes every load hits L1. *)
let all_hits = { miss_rate = (fun _ -> 0.0); hit_latency = 6; miss_latency = 40 }

(** Build a profile from measured per-array (loads, misses) counters;
    an array without counters is priced as all hits. *)
let of_counters counters =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (name, loads, misses) ->
      let rate = if loads = 0 then 0.0 else float_of_int misses /. float_of_int loads in
      Hashtbl.replace table name rate)
    counters;
  {
    all_hits with
    miss_rate = (fun a -> Option.value ~default:0.0 (Hashtbl.find_opt table a));
  }

(** Expected latency of one load from array [a]. *)
let load_latency t a =
  let r = t.miss_rate a in
  int_of_float
    (Float.round
       (((1.0 -. r) *. float_of_int t.hit_latency)
       +. (r *. float_of_int t.miss_latency)))

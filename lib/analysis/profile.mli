(** Profile feedback for the static cost model.

    The paper's compiler "uses profile feedback data for memory access miss
    latencies" (Section III-B) because it cannot predict memory delays
    statically (Section III-I, limitation 3).  We reproduce the mechanism:
    a profile maps each array to an L1 miss rate, typically collected from
    a sequential simulator run ({!Finepar_machine.Sim} exposes the
    counters), and the cost model prices loads with it. *)

type t = {
  miss_rate : string -> float;
  hit_latency : int;
  miss_latency : int;
}
val all_hits : t
val of_counters :
  ?hit_latency:int -> ?miss_latency:int -> (string * int * int) list -> t
val load_latency : t -> string -> int

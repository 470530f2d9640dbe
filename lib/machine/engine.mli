(** Simulation engine selection. *)

type t =
  | Cycle  (** the reference stepper: every core, every cycle *)
  | Compiled
      (** pre-compiled stepping: each core's program is specialized once
          into a flat array of step closures (operands resolved to
          scoreboard slots, latencies, branch targets and queue endpoints
          baked in) plus per-pc tables of source registers and queue
          gates.  Untraced, a cycle in which nothing issues
          fast-forwards to the next cycle any core's state can change,
          bulk-crediting the skipped cycles; a traced run steps every
          cycle, so its events keep the stepper's order.  Cycle-exact
          with {!Cycle} by contract: identical cycle counts,
          architectural outputs, telemetry reports, trace events and
          [Stuck] payloads. *)

val default : t
(** {!Compiled}, the fast engine: every run that names no engine
    simulates on it.  {!Cycle} stays the reference that the
    differential tests and the cross-engine fuzz oracle name
    explicitly. *)

val all : t list
(** [[Cycle; Compiled]]: the reference first. *)

val to_string : t -> string
val of_string : string -> t option

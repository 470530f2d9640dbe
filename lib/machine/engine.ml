(** Simulation engine selection: the reference stepper and the compiled
    fast-forward engine (see {!Sim} for both drivers). *)

type t = Cycle | Compiled

let default = Compiled
let all = [ Cycle; Compiled ]

let to_string = function Cycle -> "cycle" | Compiled -> "compiled"

let of_string = function
  | "cycle" -> Some Cycle
  | "compiled" -> Some Compiled
  | _ -> None

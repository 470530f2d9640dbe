(** Reference evaluator: ground-truth sequential semantics for kernels.

    Every compiled/simulated configuration is checked bit-for-bit against
    this evaluator (see the end-to-end test suite), which is what makes the
    compiler pipeline trustworthy without the paper's production compiler. *)

type workload = (string * Types.value array) list
exception Runtime_error of string
val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
type state = {
  scalars : (string, Types.value) Hashtbl.t;
  arrays : (string, Types.value array) Hashtbl.t;
}
val init_state : Kernel.t -> workload -> state
val get_array : state -> string -> Types.value array
val check_bounds : string -> 'a array -> int -> unit
val eval_expr : state -> Expr.t -> Types.value
val run : ?workload:workload -> Kernel.t -> state
type result = {
  live_out : (string * Types.value) list;
  arrays_out : (string * Types.value array) list;
}
val result_of_state : Kernel.t -> state -> result
val run_result : ?workload:workload -> Kernel.t -> result
val result_equal : result -> result -> bool
val pp_result : Format.formatter -> result -> unit

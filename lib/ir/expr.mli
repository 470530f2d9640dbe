(** Expression trees.

    Statements carry one expression tree each; the fiber-partitioning
    algorithm of Section III-A works directly on these trees.  Leaves are
    constants, scalar variable reads, and array loads; internal nodes are
    arithmetic/logic operators and selects. *)

module String_set : Set.S with type elt = String.t and type t = Set.Make(String).t
type t =
    Const of Types.value
  | Var of string
  | Load of string * t
  | Unop of Types.unop * t
  | Binop of Types.binop * t * t
  | Select of t * t * t
val pp : Format.formatter -> t -> unit
val children : t -> t list
val iter : (t -> unit) -> t -> unit
val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
val vars : t -> String_set.t
val arrays_read : t -> String_set.t
val loads : t -> (string * t) list
val op_count : t -> int
val height : t -> int
type tenv = {
  var_ty : string -> Types.ty;
  array_ty : string -> Types.ty;
}
val infer : tenv -> t -> Types.ty
val equal : t -> t -> bool
val subst : (string -> t option) -> t -> t

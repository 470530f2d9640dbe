(** Kernels: a single innermost loop extracted from an application,
    together with its data environment — exactly the experimental unit of
    the paper's Section V ("Each loop is extracted into a separate kernel
    program, together with the necessary initialization code"). *)

module String_set : Set.S with type elt = String.t and type t = Set.Make(String).t
type array_decl = {
  a_name : string;
  a_ty : Types.ty;
  a_len : int;
}
type scalar_decl = {
  s_name : string;
  s_ty : Types.ty;
  s_init : Types.value;
}
type t = {
  name : string;
  index : string;
  lo : int;
  hi : int;
  arrays : array_decl list;
  scalars : scalar_decl list;
  body : Stmt.t list;
  live_out : string list;
}
exception Invalid of string
val invalid : ('a, Format.formatter, unit, 'b) format4 -> 'a
val find_scalar : t -> String.t -> scalar_decl option
val tenv : t -> Expr.tenv
val trip_count : t -> int
val validate : t -> t
val pp : Format.formatter -> t -> unit

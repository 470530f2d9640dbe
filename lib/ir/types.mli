(** Scalar types, runtime values, and operator semantics.

    These definitions are shared by the reference evaluator ({!Eval}) and
    the machine simulator ({!Finepar_machine.Sim}), so that both execute
    bit-identical arithmetic.  All operators are total: integer division
    and remainder by zero yield zero (documented substitution for a
    trapping machine; the kernels never rely on it). *)

type ty = I64 | F64
type value = VInt of int | VFloat of float
exception Type_error of string
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
val ty_of_value : value -> ty
val pp_ty : Format.formatter -> ty -> unit
val pp_value : Format.formatter -> value -> unit
val pp_value_human : Format.formatter -> value -> unit
val value_equal : value -> value -> bool
type unop = Neg | Not | Sqrt | Abs | Exp | Log | To_float | To_int
type binop =
    Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
val unop_name : unop -> string
val binop_name : binop -> string
val pp_unop : Format.formatter -> unop -> unit
val pp_binop : Format.formatter -> binop -> unit
val is_comparison : binop -> bool
val unop_result_ty : unop -> ty -> ty
val binop_result_ty : binop -> ty -> ty
val apply_unop : unop -> value -> value
val apply_binop : binop -> value -> value -> value
val value_is_true : value -> bool
val zero_of_ty : ty -> value

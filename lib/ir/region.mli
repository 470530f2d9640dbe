(** Flattened, predicated loop-body regions.

    This is the compiler's working representation.  Two things happen when
    a kernel body is converted to a region:

    - Compound expressions are split into multiple statements to bound the
      expression-tree height (the pre-processing of Section III-A that
      "makes it possible to detect even more fine-grained parallelism").
    - Structured conditionals are dissolved into per-statement
      control-flow predicates (Section III-E: "a conditional variable
      paired with a value such that the statement can be executed only if
      the variable has the corresponding value").

    A region is a flat list of single-assignment-style statements, each
    carrying its predicate context and the source line of the original
    statement it came from (used by the proximity merge heuristic). *)

module String_set : Set.S with type elt = String.t and type t = Set.Make(String).t
module String_map : Map.S with type key = String.t and type +'a t = 'a Map.Make(String).t
type pred = { cnd : string; want : bool; }
val pred_equal : pred -> pred -> bool
val preds_equal : pred list -> pred list -> bool
val preds_prefix : pred list -> pred list -> bool
type lhs = Lscalar of string | Lstore of string * Expr.t
type sstmt = {
  id : int;
  line : int;
  preds : pred list;
  lhs : lhs;
  rhs : Expr.t;
}
type t = {
  kernel : Kernel.t;
  stmts : sstmt list;
}
val pp_sstmt : Format.formatter -> sstmt -> unit
val pp : Format.formatter -> t -> unit
val default_max_height : int
val is_simple : Expr.t -> bool
val of_kernel : ?max_height:int -> Kernel.t -> t
val eval : ?workload:Eval.workload -> t -> Eval.result
val sstmt_uses : sstmt -> Expr.String_set.t
val sstmt_def : sstmt -> string option
val sstmt_pred_vars : sstmt -> String_set.t
val op_count : t -> int

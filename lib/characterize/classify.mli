(** Loop characterization (Section IV).

    The paper inspects the hot loops of the Sequoia tier-1 benchmarks and
    buckets them:

    - initialization loops that "lack arithmetic operations";
    - loops "better suited to traditional loop parallelization" — few
      operations per iteration, dependences at most a reduction
      (8 scalar reductions, 1 array reduction, the rest elementwise);
    - loops with "many conditionals in the loop body, with variables in
      the conditional expressions involved in read-after-write
      dependences";
    - everything else: candidates for fine-grained parallelization.

    This module computes the same judgment mechanically from measurable
    features of a kernel. *)

module SS : Set.S with type elt = String.t and type t = Set.Make(String).t
type category =
    Init_loop
  | Elementwise
  | Scalar_reduction
  | Array_reduction
  | Conditional_raw
  | Fine_grained
val category_name : category -> string
val is_loop_parallel : category -> bool
type features = {
  ops : int;
  conditionals : int;
  accumulators : int;
  array_rmw_gather : bool;
  pred_raw_chain : bool;
  stores : int;
}
val features : Finepar_ir.Kernel.t -> features
val classify : Finepar_ir.Kernel.t -> category
type funnel = {
  total : int;
  init : int;
  elementwise : int;
  scalar_reduction : int;
  array_reduction : int;
  conditional_raw : int;
  fine_grained : int;
}
val funnel : Finepar_ir.Kernel.t list -> funnel
val pp_funnel : Format.formatter -> funnel -> unit

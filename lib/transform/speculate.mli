(** Control-flow speculation (Section III-H).

    A deliberately limited, rollback-free form of speculation: if-then-else
    statements whose branches are independent and side-effect free are
    executed ahead of time, before the condition value is known, and the
    results are committed with selects.  Because there is never a rollback,
    the compiler can still statically pair every enqueue with a dequeue.

    Eligibility for an [If (c, then_, else_)]:
    - both branches contain only scalar assignments (no stores, no nested
      conditionals), and
    - the sets of scalars assigned in the two branches can be anything;
      each assigned scalar commits through a select (variables assigned in
      only one branch select between the speculative value and the
      original one).

    The transformation renames branch-local definitions, hoists both
    branches' computations above the conditional, and replaces the
    conditional by one select per assigned variable — the pattern of the
    paper's Fig. 10 (compute then-value and else-value concurrently, commit
    with the condition). *)

module SS : Set.S with type elt = String.t and type t = Set.Make(String).t
val apply : Finepar_ir.Kernel.t -> Finepar_ir.Kernel.t * int

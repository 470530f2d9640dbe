(** Static execution-time estimates for region statements.

    "The compute time is a static estimate obtained using fixed latencies
    for compute operations, and profile feedback data for memory access
    miss latencies" (Section III-B).  Estimates feed the merge-affinity
    heuristic; they are deliberately approximate (Section III-I notes the
    compiler cannot estimate time accurately). *)

val sstmt_cycles :
  tenv:Finepar_ir.Expr.tenv ->
  profile:Profile.t -> Finepar_ir.Region.sstmt -> int
val region_tenv : Finepar_ir.Region.t -> Finepar_ir.Expr.tenv

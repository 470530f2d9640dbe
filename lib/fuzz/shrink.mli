(** Greedy failure-preserving minimization of a failing (kernel,
    configuration) case. *)

val stmt_count : Finepar_ir.Kernel.t -> int
(** Statements in the body, counting into conditional branches. *)

val kernel_cost : Finepar_ir.Kernel.t -> int

val kernel_candidates : Finepar_ir.Kernel.t -> Finepar_ir.Kernel.t list
(** One-step kernel reductions (all validated). *)

val shrink :
  ?compile:Oracle.compile_fn ->
  ?engine:Finepar_machine.Engine.t ->
  Gen.case ->
  Oracle.failure ->
  Gen.case * Oracle.failure
(** [shrink case failure] minimizes [case], keeping only reductions that
    still fail the same oracle as [failure]. *)

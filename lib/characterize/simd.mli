(** Static SIMD-speedup estimation (the Section IV aside).

    The paper notes that SIMD execution is a complementary way to exploit
    fine-grained parallelism and reports 4-way SIMD speedups of 1.17 for
    irs-1 and 1.90 for umt2k-4, while "the code in lammps and sphot is not
    suitable for SIMD".  This estimator makes the same judgment
    mechanically: a statement vectorizes when it is unconditional, all its
    array accesses are unit-stride in the induction variable, and it does
    not participate in a loop-carried recurrence; the estimated speedup is
    Amdahl over the static cost with the vectorizable fraction sped up by
    the vector width. *)

module SS : Set.S with type elt = String.t and type t = Set.Make(String).t
type report = {
  vector_cycles : int;
  scalar_cycles : int;
  simd_speedup : float;
}
val estimate : ?width:int -> Finepar_ir.Kernel.t -> report

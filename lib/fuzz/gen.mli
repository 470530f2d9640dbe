(** Random well-typed (kernel, configuration) cases for differential
    fuzzing.  See the implementation header for the soundness rules the
    generator maintains. *)

type placement = Finepar.Job.placement = Identity | Single_core | Mod2 | Div2

val placement_name : placement -> string
val placement_of_name : string -> placement option

val materialize : placement -> int -> int array
(** {!Finepar.Job.materialize}. *)

type case = {
  kernel : Finepar_ir.Kernel.t;
  config : Finepar.Compiler.config;
  placement : placement;
  workload_seed : int;
}

val gen_kernel : Rng.t -> Finepar_ir.Kernel.t
(** A validated random kernel (raises {!Finepar_ir.Kernel.Invalid} only
    on a generator bug). *)

val gen_config : Rng.t -> Finepar.Compiler.config

val case_of_seed : int -> case
(** The case a given integer seed generates — the unit of
    reproducibility. *)

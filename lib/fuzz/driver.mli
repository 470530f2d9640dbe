(** The fuzzing campaign driver. *)

type failure_report = {
  case_seed : int;  (** regenerate with {!Gen.case_of_seed} *)
  failure : Oracle.failure;
  shrunk : Gen.case;
  shrunk_failure : Oracle.failure;
  repro_path : string option;
}

type summary = {
  root_seed : int;
  cases_run : int;
  passed : int;
  failed : int;
  elapsed : float;
  kernels_with_ifs : int;
  kernels_with_indirect : int;
  kernels_with_int_ops : int;
  speculated : int;
  multi_core : int;
  smt_cases : int;
  total_partitions : int;
  total_cycles : int;
  failures : failure_report list;
}


val run :
  ?compile:Oracle.compile_fn ->
  ?engine:Finepar_machine.Engine.t ->
  ?out_dir:string ->
  ?pool:Finepar_exec.Pool.t ->
  ?seconds:float ->
  ?on_case:(int -> Oracle.outcome -> unit) ->
  cases:int ->
  seed:int ->
  unit ->
  summary
(** Generate and check up to [cases] cases (bounded also by [seconds] of
    wall-clock budget), shrinking failures and saving reproducers under
    [out_dir] when given.

    With a [pool], cases are checked in parallel batches; per-case seed
    derivation keeps every case independent, and tallies, failures,
    corpus writes and [on_case] calls are merged on the calling domain
    in case-index order, so for a fixed [cases] count the summary (and
    its JSON) is identical to a sequential run's.  Under a [seconds]
    budget the number of cases that fit may differ. *)

val summary_to_json : ?pool:Finepar_exec.Pool.stats -> summary -> string
(** Machine-readable summary.  Excludes the wall-clock [elapsed] field
    so the JSON is a pure function of [seed] and the case count.  When
    [pool] is given (profiling was requested), a scheduling-dependent
    ["pool"] object — steal counts, busy/idle seconds, load imbalance —
    is appended; the CI determinism diffs never pass it. *)

(** Deterministic generational (beam) autotuning search over the
    {!Space} knobs, fanned out across a kernel corpus: the paper's
    multiple code versions with dynamic feedback (Section III-I,
    limitation 1), where the compiler "can generate multiple code
    versions for regions with potential, and rely on a runtime system
    with dynamic feedback to decide which code version to execute".
    Generation 0 measures six classic versions — sequential, baseline,
    speculation, throughput, their combination, and multi-pair merge;
    later generations expand the best ones.

    One search runs in lockstep generations across every target: each
    generation's candidate set — for all targets together — is one flat
    batch handed to the evaluator, so the service path sends one frame
    per generation (reusing the session's cache across generations) and
    the direct path fans the batch out over {!Finepar_exec.Pool}.

    Determinism contract: candidate enumeration, deduplication, elite
    selection ({!compare_candidates}, stable on evaluation order) and
    result folding all depend only on evaluator results in batch order
    — never on timing — so the rendered table and JSON are
    byte-identical at [-j1] and [-jN], and cached vs. fresh through a
    store. *)

(** One kernel the search tunes. *)
type target = {
  t_name : string;
  t_kernel : Finepar_ir.Kernel.t;
  t_workload : Finepar.Job.workload;
  t_placement : Finepar.Job.placement;
  t_paper_speedup4 : float option;
      (** Table III's published 4-core speedup, for registry kernels *)
}

val registry_targets : unit -> target list
(** The 18 evaluation kernels (Table I), with their fixed workloads. *)

val corpus_targets : unit -> target list
(** The 33 excluded characterization loops, on seeded workloads. *)

val fuzz_targets : dir:string -> target list
(** Promoted fuzz kernels: one target per reproducer in [dir] (sorted;
    empty if the directory is missing), named ["fuzz:<basename>"],
    keeping the case's workload seed and SMT placement. *)

(** Search parameters.  [budget] bounds candidate evaluations per
    target (the sequential reference is not counted); [generations]
    bounds neighbor-expansion rounds after generation 0 (the six
    classic versions, heuristic pick first so it survives any budget);
    [beam] is the elite count expanded each round. *)
type params = {
  cores : int;
  machine : Finepar_machine.Config.t;
  beam : int;
  generations : int;
  budget : int;
}

val default_params : params
(** 4 cores, default machine, beam 2, 3 generations, budget 40. *)

val compare_candidates :
  int * Finepar.Compiler.config -> int * Finepar.Compiler.config -> int
(** Deterministic candidate ordering: fewer cycles first, then the
    simpler configuration — fewer cores; speculation off before on;
    throughput off before on; [`Greedy] before [`Multi_pair]; lower
    transfer latency; shorter queues; then the remaining knobs (weights,
    max height, max queue pairs).  Candidates that still compare equal
    are observationally identical, and selection keeps the earlier one —
    so a parallel search merge reproduces the same winner at any [-j]. *)

val direct :
  ?pool:Finepar_exec.Pool.t ->
  engine:Finepar_machine.Engine.t ->
  unit ->
  Finepar.Job.evaluator
(** {!Finepar.Job.direct}. *)

(** Per-target search outcome. *)
type best = {
  b_desc : string;
  b_config : Finepar.Compiler.config;
  b_cycles : int;
}

type row = {
  r_target : target;
  r_seq : (int, string) result;  (** sequential reference cycles *)
  r_heuristic : (int, string) result;
      (** the Section III-B heuristic pick ("baseline": greedy merge,
          default weights, profile feedback at [params.cores]) *)
  r_best : best option;  (** None only when every candidate errored *)
  r_evaluated : int;  (** candidate evaluations performed *)
  r_generations : int;  (** evaluation rounds run (generation 0 included) *)
}

val run : params -> Finepar.Job.evaluator -> target list -> row list
(** The search proper.  Generation 0 is the six classic versions of
    the base configuration that [params] sets (baseline first); each
    later generation expands the [beam] best rows' {!Space.neighbors},
    deduplicated against everything already evaluated, truncated to the
    remaining budget.  Targets whose sequential reference fails get an
    error row and no candidate evaluations.  The rows depend only on the
    measures, so they are the same over {!direct} and
    {!Service_eval.evaluator}. *)

val gap : row -> float option
(** [heuristic cycles / best cycles] — 1.0 means the heuristic pick was
    optimal within the searched space; above 1.0 is speedup the
    heuristic left on the table. *)

val pp_table : Format.formatter -> row list -> unit
(** The per-kernel best-config table: sequential, heuristic and best
    cycles, heuristic gap, speedup over sequential, evaluation count
    and the winning configuration, with a mean-gap summary footer. *)

val to_json : params:params -> row list -> Finepar_telemetry.Json.t
(** Deterministic JSON rendering of the same data, plus the search
    parameters and total evaluation count. *)

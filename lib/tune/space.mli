(** The autotuning configuration space: the knobs the generational
    search explores, and the deterministic naming/dedup helpers the
    search keys on.

    Every function here is pure: neighbor enumeration order, description
    strings and dedup keys depend only on the configuration value, never
    on evaluation order — the foundation of the search's [-j1] ≡ [-jN]
    byte-identity. *)

(** Named affinity-weight presets: the paper's default mix plus three
    single-heuristic-dominant corners (dependence, compute time, source
    proximity — Section III-B's three affinity heuristics). *)


val describe : Finepar.Compiler.config -> string
(** A compact human-readable summary, e.g.
    ["4c greedy +spec q20 lat5 i1 queues w:default"]. *)

val key : Finepar.Compiler.config -> string
(** A canonical dedup key covering every knob the search varies (cores,
    algorithm, flags, queue length, transfer latency, weights, height,
    queue-pair bounds, issue width and comm mode).  Two configs with
    equal keys are identical to the search. *)

val neighbors : Finepar.Compiler.config -> Finepar.Compiler.config list
(** The one-knob mutations of a configuration, in a fixed documented
    order: speculation toggle, throughput toggle, merge-algorithm swap,
    comm-mode swap (queues vs shared cache), then the alternative core
    counts (1, 2, 4, 8), queue lengths (4, 8, 20, 64), transfer
    latencies (1, 5, 20), issue widths (1, 2) and weight presets. *)

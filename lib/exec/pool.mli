(** A self-scheduling domain pool for the embarrassingly parallel
    fan-outs of the harness: per-kernel experiment rows, fuzz campaign
    cases, search batches and the service's cache-miss groups.

    Results are merged by task index, never by completion order, so a
    parallel {!map} returns exactly what [List.map] returns — callers can
    (and the CI does) diff sequential and parallel outputs byte for byte.

    The parallelism degree is the [?domains] argument, else
    [Domain.recommended_domain_count () - 1] (leaving one core for the
    coordinating domain).  At one domain every operation degrades to plain
    sequential execution with identical semantics. *)

exception Nested_map
(** Raised when a task running inside {!map} calls {!map} on the same
    pool.  Domains must not be nested (OCaml domains are heavyweight);
    parallelize at one level of the fan-out and keep the inner levels
    sequential. *)

type t

type stats = {
  domains : int;  (** pool width (worker slots) *)
  runs : int;  (** {!map} calls that executed at least one task *)
  run_seconds : float;  (** wall-clock time spent inside those calls *)
  tasks : int;  (** tasks executed, across all runs *)
  busy_seconds : float;  (** summed over workers: time inside tasks *)
  idle_seconds : float;  (** summed over workers: in-run time not in tasks *)
  imbalance : float;
      (** max busy / mean busy over worker slots that ran at least one
          task: 1.0 is a perfectly even split, [domains] is one worker
          doing everything; 1.0 when the pool has not run. *)
}
(** Cumulative execution statistics, accumulated across {!map} calls
    since pool creation.  Sequential degradation (one domain, or 0/1
    tasks) is counted too, on worker slot 0, so [tasks] always equals
    the total number of elements mapped. *)

val stats : t -> stats
(** A consistent snapshot; thread-safe.  Timing uses wall-clock
    ([Unix.gettimeofday]), matching the rest of the telemetry layer. *)

val pp_stats : stats Fmt.t
(** The one-line rendering
    [pool: D domains, T tasks, busy Bs, idle Is, imbalance X], without a
    trailing newline.  Scheduling-dependent, so callers print it only
    where byte-identical output across [-j] is not expected. *)

val stats_json : stats -> Finepar_telemetry.Json.t
(** An object with exactly the keys [domains], [runs], [run_seconds],
    [tasks], [busy_seconds], [idle_seconds] and [imbalance]. *)

val create : ?domains:int -> unit -> t
(** A pool that runs [domains] tasks concurrently (clamped to at least
    1; default [max 1 (Domain.recommended_domain_count () - 1)]).
    Worker domains are spawned per top-level {!map} call and joined
    before it returns, so a pool value holds no OS resources and never
    needs a shutdown. *)

val domains : t -> int

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map pool ~f xs] applies [f] to every element of [xs] on the pool's
    domains: each worker repeatedly claims the next unclaimed element
    from one shared atomic counter, so a slow element never holds up
    the rest.  Semantics match [List.map f xs]:

    - the result list is in input order (merged by task index);
    - every task runs even when another task raises;
    - if any tasks raised, the exception of the {e lowest-indexed}
      failing task is re-raised (with its backtrace) after all tasks
      finished, so the raised exception does not depend on scheduling.

    [f] must be safe to run from multiple domains: no unsynchronized
    shared mutable state.  Calling [map] on a pool from inside one of
    its own tasks raises {!Nested_map} (see above). *)

val map_opt : t option -> f:('a -> 'b) -> 'a list -> 'b list
(** [map_opt (Some pool) ~f xs = map pool ~f xs];
    [map_opt None ~f xs = List.map f xs].  Convenience for the [?pool]
    optional arguments threaded through the experiment drivers. *)

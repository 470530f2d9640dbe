(** Host-side span tracing: nestable, domain-aware wall-clock spans and
    counters over the host pipeline (compiler passes, pool tasks, fuzz
    cases, simulator runs).  Disabled by default; when no tracer is
    {!install}ed, {!with_span} costs one atomic load and a branch. *)

type span = {
  id : int;
  parent : int;  (** span id, or -1 for a root span of its domain *)
  name : string;
  cat : string;
  domain : int;  (** the domain the span ran on ([Domain.self]) *)
  t0 : float;  (** seconds since the tracer's epoch *)
  mutable t1 : float;  (** negative while the span is still open *)
  mutable args : (string * Json.t) list;
}

(** Span wall-clock duration in seconds (0 while still open). *)
val duration : span -> float

type t

val create : unit -> t

(** Install [t] as the process-wide sink: every {!with_span} site in
    every domain records into it until {!uninstall}. *)
val install : t -> unit

val uninstall : unit -> unit
val active : unit -> t option

(** [with_span ?cat ?args name f] runs [f]; when a tracer is installed,
    its wall-clock interval is recorded as a span on the calling
    domain, nested under that domain's innermost open span.  The span
    is recorded even if [f] raises. *)
val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** Attach/overwrite an argument on the calling domain's innermost open
    span (no-op when tracing is off or no span is open). *)
val set_arg : string -> Json.t -> unit

(** Bump a named counter on the installed tracer (no-op when off). *)
val add_counter : ?by:int -> string -> unit

(** Finished spans sorted by (start time, id). *)
val spans : t -> span list

(** Counter totals sorted by name. *)
val counters : t -> (string * int) list

(** The pid used for the host process in Chrome traces (the simulator
    uses 0 = cores, 1 = queues). *)
val host_pid : int

(** Chrome trace_event export: one [Process_name] for the host, one
    [Thread_name]/[Thread_sort] pair per domain, and a [Complete] event
    per span on its domain's thread row.  A domain's tid is its rank
    among the distinct domain ids in the trace — stable and distinct. *)
val to_chrome : t -> Chrome_trace.event list

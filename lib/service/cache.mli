(** Content-addressed response store: (kernel digest, config digest,
    code version) -> canonical run response bytes, persisted
    under a sharded directory.  A hit returns the exact bytes a fresh
    computation would produce; corrupted, truncated or mismatched
    entries count as misses (and are removed), never as crashes.
    Writes are atomic (temp file + rename). *)

type key = {
  kernel_digest : string;  (** MD5 hex of {!Wire.kernel_canon} *)
  config_digest : string;  (** MD5 hex of {!Wire.config_digest_input} *)
  version : string;  (** {!Version.code_version} unless overridden *)
}

type t

val create : ?max_entries:int -> ?version:string -> string -> t
(** [create dir] opens (creating as needed) the store rooted at [dir].
    [max_entries] bounds the entry count: after each store the oldest
    entries by mtime are evicted down to the limit.  [version]
    overrides {!Version.code_version} in every key this handle builds —
    tests use it to show a version bump invalidates the store. *)

val key_of_request : t -> Wire.request -> key option
(** The cache key of a cacheable request; [None] for [Stats]/[Ping]/
    [Shutdown]. *)

val find : t -> key -> string option
(** The stored canonical response bytes, or [None] (counted as a miss;
    corrupt entries additionally count as [corrupt]). *)

val store : t -> key -> string -> unit
(** Persist a canonical response string.  Error responses must not be
    stored (the server never calls this for them). *)

val entries : t -> int
(** Entry files currently on disk. *)

val counters : t -> (string * int) list
(** hits / misses / stores / corrupt / evictions / entries — also
    mirrored as [service.cache.*] {!Finepar_telemetry.Tracer}
    counters. *)

val stats_json : t -> Finepar_telemetry.Json.t
(** {!counters} as the pool-style JSON stats object. *)

(** Client side of the service. *)

(** Where to send a batch: [Socket path] talks to a live [finepar
    serve] over its Unix domain socket; [Store dir] opens the disk
    store in-process — no server needed, same cache, same bytes. *)
type via = Store of string | Socket of string

val via_of_string : string -> (via, string) result
(** Parses ["store:DIR"] or ["socket:PATH"]. *)

val via_to_string : via -> string

(** {2 Sessions}

    A session keeps one cache handle ([Store]) or one connection
    ([Socket]) alive across many batches, so multi-batch drivers — the
    generational autotune search above all — reuse the same store and
    the same socket frame-after-frame instead of reopening per batch. *)

type session

val with_session :
  ?pool:Finepar_exec.Pool.t ->
  ?attempts:int ->
  via ->
  (session -> 'a) ->
  'a
(** Opens a session, runs the callback, closes on all paths.  [pool]
    parallelizes the in-process [Store] path; [attempts] (default 50,
    0.1 s apart) retries the socket connection while the server is still
    binding. *)

val session_frame : session -> string -> string
(** One frame out, one frame in, raw payload bytes both ways (callers
    byte-compare or persist them unchanged). *)

val session_exec : session -> Wire.request list -> Wire.response list
(** Send a batch; the responses, one per request, in order. *)

val session_counters : session -> (string * int) list
(** The cache hit/miss counters this session observes: the store
    handle's own counters ([Store], invocation lifetime) or a [Stats]
    round-trip ([Socket], server lifetime). *)

(** {2 One batch}

    A session opened for one batch and closed again. *)

val exec_strings :
  ?pool:Finepar_exec.Pool.t ->
  ?attempts:int ->
  via ->
  Wire.request list ->
  string list
(** Send a batch; canonical response strings, one per request, in
    order. *)

val exec :
  ?pool:Finepar_exec.Pool.t ->
  ?attempts:int ->
  via ->
  Wire.request list ->
  Wire.response list
(** Like {!exec_strings}, parsed. *)

(** The compile-and-simulate server: batched request handling over the
    content-addressed cache, with a Unix-domain-socket accept loop and
    a stdin/stdout fallback for CI pipelines.

    Determinism contract: responses are byte-identical whether served
    from cache or computed fresh, and identical at [-j1] and [-jN] —
    lookups/stores run on the calling domain in request order, misses
    fan out over {!Finepar_exec.Pool} (task-index-ordered merge)
    grouped by (kernel digest, config digest) so one compilation serves
    every engine and request kind of a job, and requests sharing one
    cache key are computed and stored once. *)

type t

val create : ?pool:Finepar_exec.Pool.t -> cache:Cache.t -> unit -> t

val handle_requests : t -> (Wire.request, string) result list -> string list
(** One batch: canonical response strings, one per request, in order.
    [Error msg] inputs (per-item parse failures) become [Error]
    responses.  Control requests ([Stats]/[Ping]/[Shutdown]) are
    answered inline and never cached; [Shutdown] additionally stops the
    serving loops after the current frame. *)

val handle_frame : t -> string -> string
(** Payload in, payload out: a [(batch ...)] of requests maps to a
    [(batch ...)] of responses, a bare [(request ...)] to a bare
    response, anything unparsable to a single [Error] response. *)

(** {2 Framing: ["<decimal byte count>\n<payload>"]} *)

val max_frame : int
val write_frame : out_channel -> string -> unit

val read_frame : in_channel -> string option
(** [None] on end of input or a malformed/oversized header (the
    connection is then closed). *)

(** {2 Serving loops} *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Frame-at-a-time loop until end of input or a [Shutdown] request —
    the stdin/stdout fallback ([finepar serve --stdio]). *)

val serve_socket : t -> string -> unit
(** Bind (replacing any stale file), listen, and serve connections
    sequentially until a [Shutdown] request; the socket file is removed
    on exit.  SIGPIPE is ignored so a vanishing client cannot kill the
    server. *)

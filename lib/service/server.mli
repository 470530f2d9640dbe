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

type frame =
  | Frame of string  (** a whole payload *)
  | End_of_input  (** end of input, before or inside a frame *)
  | Bad_header of string
      (** the header line (newline stripped) is not a byte count in
          [0..max_frame]; at most 65 bytes of it are read, as no byte
          count is that long *)

val read_frame : in_channel -> frame

(** {2 Serving loops} *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Frame-at-a-time loop until end of input or a [Shutdown] request —
    the stdin/stdout fallback ([finepar serve --stdio]).  A bad frame
    header is answered with one [Error] frame quoting it (its first 64
    bytes when longer), then the loop ends: the stream cannot be
    resynchronized. *)

val serve_socket : t -> string -> unit
(** Bind (replacing any stale file), listen, and serve connections
    sequentially until a [Shutdown] request; the socket file is removed
    on exit.  SIGPIPE is ignored so a vanishing client cannot kill the
    server. *)

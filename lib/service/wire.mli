(** Canonical wire format for the compile-and-simulate service.

    Every message is one s-expression rendered with
    {!Finepar_fuzz.Repro.canon}, so equal values serialize to equal
    bytes: the framing layer and the content-addressed cache both key
    on the rendered string.  Kernel, config and value encodings are the
    fuzz reproducer's ({!Finepar_fuzz.Repro}); floats travel as [%h]
    hexadecimal atoms and round-trip bit-exactly, including negative
    zero and the infinities (NaNs canonicalize to a payload-free [nan]
    atom, so every NaN digests to the same cache key).

    A workload travels in one of three forms:
    - [(workload seed N)] for [Seeded N];
    - [(workload registry NAME MD5HEX)] for an [Explicit] value that is
      physically ([==]) the [workload] of the {!Finepar_kernels.Registry}
      entry named NAME.  The receiver resolves NAME in its own registry
      and hands back that same physical value.  MD5HEX is the digest of
      the entry's values; a mismatch (two builds holding different data
      under one name) or an unknown NAME is a parse error;
    - [(workload explicit (ARRAY V ...) ...)] for any other [Explicit]
      value, including a structurally equal copy of a registry
      workload.

    Both [Explicit] spellings decode to equal values, and so to the same
    cache key and the same response bytes. *)

(** {!Finepar.Job.workload}: seeded or explicit workload arrays. *)
type workload_spec = Finepar.Job.workload =
  | Seeded of int
  | Explicit of Finepar_ir.Eval.workload

(** {!Finepar.Job.t}: one unit of compile work plus everything that
    parameterizes it. *)
type job = Finepar.Job.t = {
  kernel : Finepar_ir.Kernel.t;
  config : Finepar.Compiler.config;
  sequential : bool;
  placement : Finepar_fuzz.Gen.placement;
  workload : workload_spec;
  profile_counters : (string * int * int) list;
}

type request =
  | Run of { job : job; engine : Finepar_machine.Engine.t }
      (** [engine] is a hint for how to compute the run: both engines
          answer with the same bytes, so it is not part of the cache
          key *)
  | Compile of job
  | Stats  (** cache hit/miss counters — not cached itself *)
  | Ping  (** liveness + code version — not cached *)
  | Shutdown

type run_payload = {
  cycles : int;
  instrs : int;
  queues_used : int;
  load_counters : (string * int * int) list;
  result : Finepar_ir.Eval.result;
  report : Finepar.Report.t;
}

type response =
  | Run_result of run_payload
  | Compile_result of Finepar.Compiler.stats
  | Stats_result of (string * int) list
  | Pong of string  (** code version *)
  | Shutdown_ack
  | Error of string
      (** deterministic rendering of the pipeline exception; never
          cached *)

val job_of_request : request -> job option
(** The job a cacheable request carries; [None] for control requests. *)

val kind_slot : request -> string option
(** The cache key's request-kind component: ["run"] or ["compile"];
    [None] for control requests.  The engine of a [Run] is
    not part of the key. *)

val kernel_canon : job -> string
(** Digest input covering the kernel text alone. *)

val config_digest_input : job -> string
(** Digest input covering everything else that can change a response
    for the same kernel: the canonical text of config (machine
    geometry, weights, ...), sequential flag, placement and profile
    feedback, then the workload: the seed, or the 16-byte MD5 of a
    length-prefixed binary encoding of its values (ints as int64,
    floats as their bits with every NaN mapped to the quiet NaN of its
    sign — the equivalence the wire's [%h] text has, so a job and its
    wire round-trip digest alike).  A registry workload's MD5 is
    computed once per process.  Not text: only ever hashed. *)

(** {2 Single messages} *)

val request_to_string : request -> string
val request_of_string : string -> request
val response_to_string : response -> string
val response_of_string : string -> response

(** {2 Batches — what actually travels in a frame} *)

val batch_to_string : request list -> string
val requests_of_string : string -> request list
val responses_of_string : string -> response list

val batch_items_of_string : string -> Finepar_fuzz.Repro.sexp list
(** The items of a [(batch ...)] payload, unparsed beyond sexp shape. *)

val batch_of_response_strings : string list -> string
(** Reassemble a [(batch ...)] from already-canonical response strings
    without re-rendering, so cached bytes pass through untouched. *)

(**/**)

(* Exposed for the server's per-item batch parsing and for tests. *)
val sexp_of_request : request -> Finepar_fuzz.Repro.sexp
val request_of_sexp : Finepar_fuzz.Repro.sexp -> request
val sexp_of_config : Finepar.Compiler.config -> Finepar_fuzz.Repro.sexp
val config_of_sexp : Finepar_fuzz.Repro.sexp -> Finepar.Compiler.config
val sexp_of_job : job -> Finepar_fuzz.Repro.sexp
val sexp_of_report : Finepar.Report.t -> Finepar_fuzz.Repro.sexp
val report_of_sexp : Finepar_fuzz.Repro.sexp -> Finepar.Report.t

(** Reproducer files: serializing a (kernel, configuration) case as an
    s-expression that round-trips bit-exactly.

    The generic sexp machinery (type, parser, canonical printer, field
    accessors) and the kernel/config serializers are exposed so other
    wire formats — notably {!Finepar_service.Wire} — build on the same
    canonical encoding instead of inventing a second one. *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

val parse_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse_error} with a formatted message. *)

val parse_sexp : string -> sexp
(** Parses one s-expression.  Atoms may be bare tokens or double-quoted
    strings with backslash escapes for quote, backslash, newline, tab
    and carriage return (the only way to spell an empty or
    whitespace-bearing atom).  Lists nest at most 1000 levels deep.
    Raises {!Parse_error} on malformed input, and with the message
    ["nesting deeper than 1000 levels"] on deeper nesting. *)


val canon : sexp -> string
(** Canonical single-line rendering: one space between siblings, atoms
    quoted exactly when they need it.  [parse_sexp (canon s)] equals
    [s], and equal sexps render to equal bytes regardless of any
    formatter state — the property cache digests rely on. *)

(** {2 Field access within [(key value ...)] association lists} *)

val field_items : string -> sexp -> sexp list
(** All values after the key; raises {!Parse_error} when missing. *)

val field : string -> sexp -> sexp
(** Exactly one value after the key. *)

val section : string -> sexp -> sexp
(** A sub-record such as [(machine (queue_len 2) ...)], rebuilt with its
    tag so it can be fielded into recursively. *)

val atom : sexp -> string
val int_of : sexp -> int
val bool_of : sexp -> bool

val check_fields :
  what:string -> known:string list -> ?extra:string list -> sexp -> unit
(** Reject unknown and repeated fields in a [(tag (key value) ...)]
    record: every keyed item must be in [known] (or [extra], for fields
    a wrapping parser layers on top), and no key may appear twice.
    Without this a misspelled, stale or doubled field in a hand-edited
    reproducer — or one written by a newer format — would be silently
    dropped and the case would replay under a different configuration
    than the file says.  Raises {!Parse_error}. *)

val float_atom : float -> sexp
(** A float as a [%h] hexadecimal atom — bit-exact round-trip, including
    negative zero; [nan]/[infinity] render to atoms [float_of_string]
    accepts. *)

(** {2 IR serializers (bit-exact round-trips)} *)

val sexp_of_value : Finepar_ir.Types.value -> sexp
val value_of_sexp : sexp -> Finepar_ir.Types.value
val sexp_of_kernel : Finepar_ir.Kernel.t -> sexp
val kernel_of_sexp : sexp -> Finepar_ir.Kernel.t
(** [kernel_of_sexp] re-validates; raises {!Finepar_ir.Kernel.Invalid}. *)

val sexp_of_config : Finepar.Compiler.config -> sexp
val config_of_sexp : ?extra:string list -> sexp -> Finepar.Compiler.config
(** [sexp_of_config] records the structural knobs (cores, height,
    algorithm, throughput, queue pairs, speculation, comm mode,
    machine); affinity weights and profile feedback are rebuilt from
    defaults by [config_of_sexp].  Wire formats that must round-trip
    weights carry them separately and declare those fields via [extra]
    (see {!Finepar_service.Wire}); any other unknown field is rejected
    with {!Parse_error}. *)


(** {2 Whole-file interface} *)

val to_string : ?failure:Oracle.failure -> Gen.case -> string
(** The reproducer text; [failure] adds a comment header recording which
    oracle failed. *)

val of_string : string -> Gen.case
(** Parses (and re-validates) a reproducer.  Raises {!Parse_error} on
    malformed input, {!Finepar_ir.Kernel.Invalid} on an ill-formed
    kernel. *)

val save : string -> ?failure:Oracle.failure -> Gen.case -> unit
val load : string -> Gen.case

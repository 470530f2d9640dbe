(** The host-trace exporter shared by the CLI and the bench harness:
    run a computation under an installed {!Tracer}, then write its
    Chrome trace and its {!Profile_tree}. *)

val with_tracing :
  trace_out:string option -> profile:string option -> (unit -> 'a) -> 'a
(** [with_tracing ~trace_out ~profile f] runs [f].  With neither
    destination given no tracer is installed and every span site stays
    a single atomic load.  Otherwise [f] runs under a fresh tracer, which
    is then uninstalled and exported: the Chrome trace to [trace_out],
    the profile tree to [profile] — as text on stdout for ["-"], else as
    JSON to that file.  Each file written is named on stderr.  The
    export is also registered with [at_exit] (guarded to run once),
    because a failing command that leaves through [exit] skips
    [Fun.protect] finalizers: it still leaves its trace behind. *)

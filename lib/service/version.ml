(** Result-semantics version of the compile-and-simulate pipeline.

    Part of every cache key: a stored entry answers a request only when
    it was computed by the same code version.  Bump this string whenever
    a change can alter any byte of a response for the same request —
    compiler passes, simulator timing, telemetry accounting, or the wire
    encoding itself.  Digests alone cannot capture this (the request
    bytes do not change when the pipeline does), which is why the
    version is a separate key component; see DESIGN.md "Cache-key
    hygiene". *)

(* fp-svc-2: issue_width / comm_mode config axes, dual_issued report
   column — both the request and the response bytes changed.
   fp-svc-3: the store key holds the request kind instead of the engine
   (a run answered under one engine is a hit under the other), and the
   wire rejects the retired [event] engine.
   fp-svc-4: the config digest hashes the workload's values in binary
   instead of their [%h] text, so every key is new.
   fp-svc-5: the config digest holds the MD5 of the workload's values
   instead of the values themselves (so a registry workload's key costs
   a memo lookup); response bytes are unchanged, but every key is new.
   fp-svc-6: a run is the only computed answer.  The [compile] request
   kind and the key's kind slot are gone, and a run response carries
   cycles, load counters and the report but no longer the output
   arrays, instrs or queues_used: every key and every run response is
   new. *)
let code_version = "fp-svc-6"

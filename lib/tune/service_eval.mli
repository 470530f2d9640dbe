(** Evaluation through the compile-and-simulate service cache: the
    [--via=store:DIR|socket:PATH] evaluator.  It differs from
    {!Finepar.Job.direct} only in where a job is computed — the server
    answers a miss with {!Finepar.Job.compile} and {!Finepar.Job.run} —
    so {!Finepar.Job.speedup}, {!Finepar.Job.autotune} and {!Search.run}
    print the same bytes over either. *)

type exec = Finepar_service.Wire.request list -> Finepar_service.Wire.response list
(** One batch round-trip, e.g. [Finepar_service.Client.session_exec]
    partially applied to an open session. *)

val evaluator :
  exec:exec -> engine:Finepar_machine.Engine.t -> Finepar.Job.evaluator
(** Sends each batch as [Run] requests; cycles and load counters from
    [Run_result], service [Error] payloads as [Error] measures. *)

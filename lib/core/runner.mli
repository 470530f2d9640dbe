(** Running one compiled kernel on the simulator and checking its
    results against the reference evaluator.  Turning a job description
    (profile feedback, placement, workload) into a run is {!Job}'s. *)

(** Outcome of one simulation. *)
type run = {
  cycles : int;  (** cycle of the last core's halt *)
  result : Finepar_ir.Eval.result;  (** live-out scalars + written arrays *)
  queues_used : int;  (** distinct (src, dst) core pairs that carried values *)
  instrs : int;  (** instructions issued across all cores *)
  load_counters : (string * int * int) list;
      (** per array: (name, loads, L1 misses) — profile-feedback input *)
  telemetry : Report.t;
      (** per-core / per-queue / per-fiber cycle attribution *)
}

(** Raised by {!run} when the simulated outputs differ from the reference
    evaluator in any bit. *)
exception Mismatch of string

(** [run compiled] simulates a compiled kernel.
    @param check compare outputs bit-for-bit against the reference
      evaluator and raise {!Mismatch} on any difference (default [true])
    @param workload initial array contents
    @param core_map logical-core (hardware thread) to physical-core
      placement; several threads on one physical core share its issue
      slot and L1 (SMT).  Defaults to one thread per core.
    @param tracing record per-cycle issue/stall events in the simulator's
      bounded ring buffer (default [false])
    @param trace_capacity ring capacity when tracing
      (default 65536)
    @param engine simulation engine (default
      {!Finepar_machine.Engine.default}, the compiled engine); the two engines
      are cycle-exact to each other.  The compiled engine's one-time
      specialize step is timed as its own ["specialize"] tracer span
      nested under the sim span. *)
val run :
  ?check:bool ->
  ?workload:Finepar_ir.Eval.workload ->
  ?core_map:int array ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?engine:Finepar_machine.Engine.t ->
  Compiler.compiled ->
  run

(** Like {!run}, but also returns the simulator, whose event trace feeds
    {!Report.chrome_trace}. *)
val run_with_sim :
  ?check:bool ->
  ?workload:Finepar_ir.Eval.workload ->
  ?core_map:int array ->
  ?tracing:bool ->
  ?trace_capacity:int ->
  ?engine:Finepar_machine.Engine.t ->
  Compiler.compiled ->
  run * Finepar_machine.Sim.t

(** Post-run telemetry: per-core, per-queue and per-fiber attribution
    tables derived from one simulation, with exporters to JSON, CSV
    and the Chrome [trace_event] format (loadable in [chrome://tracing]
    or Perfetto). *)

(** One simulated core's cycle accounting.  The integer fields
    partition the run's cycles exactly:
    [instrs - dual_issued + stalls + branch_wait + smt_wait +
     idle_after_halt = run cycles] (an instruction issued in an extra
    bundle slot shares its cycle with the bundle's first issue). *)
type core_row = {
  core : int;
  instrs : int;
  stall_operand : int;
  stall_queue_full : int;
  stall_queue_empty : int;
  branch_wait : int;
  smt_wait : int;
  idle_after_halt : int;
  dual_issued : int;  (** instructions issued in bundle slots >= 2 *)
  stall_episodes : Finepar_telemetry.Histogram.t;
      (** durations of contiguous stall episodes *)
}

type queue_row = {
  queue : int;
  src : int;
  dst : int;
  transfers : int;
  max_occupancy : int;
  occupancy : Finepar_telemetry.Histogram.t;
      (** occupancy sampled after each enqueue; bucket total =
          [transfers] *)
}

(** Cycle attribution for one source fiber (one statement of the
    fiber-split region). *)
type fiber_row = {
  fiber : int;  (** {!Finepar_machine.Program.no_fiber} = runtime glue *)
  partition : int;  (** core the fiber's code was placed on, or -1 *)
  line : int;  (** source line of the fiber's statement, or -1 *)
  issue : int;  (** cycles spent issuing this fiber's instructions *)
  stall : int;  (** cycles stalled on this fiber's instructions *)
}

type t = {
  kernel : string;
  cycles : int;
  n_cores : int;
  total_core_cycles : int;  (** [cycles * n_cores] *)
  wait_cycles : int;  (** branch-penalty + SMT-loss + post-halt idle *)
  instrs : int;
  cores : core_row list;
  queues : queue_row list;
  fibers : fiber_row list;
      (** sum of [issue + stall] over rows, plus [wait_cycles], equals
          [total_core_cycles] *)
  dropped_events : int;  (** trace-ring truncation *)
}

(** Build the report from a finished simulation.  With [?compiled], fiber
    rows carry source lines and the report carries the kernel name.
    Every field is determined by the simulation; host timing lives in
    {!Finepar_telemetry.Tracer} spans, never here. *)
val of_sim : ?compiled:Compiler.compiled -> Finepar_machine.Sim.t -> t

val to_json : t -> Finepar_telemetry.Json.t

(** One row per counter, gauge or histogram, under the header
    [name,labels,kind,value,count,sum,min,max]; a histogram fills
    count/sum/min/max, the others [value]. *)
val to_csv : t -> string

val pp : Format.formatter -> t -> unit

(** Chrome [trace_event] timeline of a traced simulation: one lane per
    core (pid 0; contiguous same-fiber / same-stall cycles merged into
    spans) and an occupancy counter track per queue (pid 1).  1 simulated
    cycle = 1 us.  Host spans (compiler passes) come from
    {!Finepar_telemetry.Tracer.to_chrome} on pid
    {!Finepar_telemetry.Tracer.host_pid}. *)
val chrome_trace :
  Finepar_machine.Sim.t -> Finepar_telemetry.Chrome_trace.event list

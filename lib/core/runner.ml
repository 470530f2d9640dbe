(** Running one compiled kernel on the simulator and checking its
    results against the reference evaluator. *)

open Finepar_ir
open Finepar_machine

type run = {
  cycles : int;
  result : Eval.result;
  queues_used : int;  (** dynamic — Table III "Num Queues" *)
  instrs : int;
  load_counters : (string * int * int) list;  (** array, loads, L1 misses *)
  telemetry : Report.t;
}

exception Mismatch of string

(** Simulate a compiled kernel on [workload] and also return the
    simulator itself, for callers that need the raw event trace.  When
    [check] is set (the default), the outputs are compared bit-for-bit
    with the reference evaluator and {!Mismatch} is raised on any
    difference. *)
let run_with_sim ?(check = true) ?(workload = []) ?core_map ?tracing
    ?trace_capacity ?engine (c : Compiler.compiled) =
  let sim =
    Sim.create ?core_map ?tracing ?trace_capacity
      ~config:c.Compiler.config.Compiler.machine ~initial:workload
      c.Compiler.code.Finepar_codegen.Lower.program
  in
  let engine = Option.value engine ~default:Engine.default in
  let cycles =
    Finepar_telemetry.Tracer.with_span ~cat:"sim"
      ~args:
        [
          ( "kernel",
            Finepar_telemetry.Json.String c.Compiler.source.Kernel.name );
        ]
      ("sim:" ^ Engine.to_string engine)
      (fun () ->
        (* The compiled engine's one-time closure compilation is timed as
           its own pass span, nested under the sim span, so traces show
           the specialize cost separately from the run proper. *)
        let specialized =
          match engine with
          | Engine.Compiled ->
            Some
              (Finepar_telemetry.Tracer.with_span ~cat:"pass" "specialize"
                 (fun () -> Sim.specialize sim))
          | Engine.Cycle -> None
        in
        let cycles = Sim.run ~engine ?specialized sim in
        Finepar_telemetry.Tracer.set_arg "cycles"
          (Finepar_telemetry.Json.Int cycles);
        cycles)
  in
  let written = Stmt.arrays_written c.Compiler.kernel.Kernel.body in
  let result =
    {
      Eval.live_out =
        List.map
          (fun (v, r) -> (v, Sim.reg_value sim 0 r))
          c.Compiler.code.Finepar_codegen.Lower.live_out_regs;
      Eval.arrays_out =
        List.filter_map
          (fun (d : Kernel.array_decl) ->
            if Stmt.String_set.mem d.Kernel.a_name written then
              Some (d.Kernel.a_name, Array.copy (Sim.array_contents sim d.Kernel.a_name))
            else None)
          c.Compiler.kernel.Kernel.arrays;
    }
  in
  if check then begin
    let expected = Eval.run_result ~workload c.Compiler.source in
    if not (Eval.result_equal expected result) then
      raise
        (Mismatch
           (Fmt.str
              "@[<v>kernel %s (%d cores): simulated result differs from \
               reference@,expected: %a@,got: %a@]"
              c.Compiler.source.Kernel.name c.Compiler.stats.Compiler.n_partitions
              Eval.pp_result expected Eval.pp_result result))
  end;
  ( {
      cycles;
      result;
      queues_used = Sim.queues_used sim;
      instrs =
        Array.fold_left
          (fun acc (cs : Sim.core_stats) -> acc + cs.Sim.instrs)
          0 sim.Sim.stats;
      load_counters = Sim.load_counters sim;
      telemetry = Report.of_sim ~compiled:c sim;
    },
    sim )

let run ?check ?workload ?core_map ?tracing ?trace_capacity ?engine c =
  fst (run_with_sim ?check ?workload ?core_map ?tracing ?trace_capacity ?engine c)

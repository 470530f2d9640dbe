(* Shared helpers for the hand-written test suites (machine, verifier,
   telemetry, engine): program builders for one- and two-core machines,
   a simulator runner, registry compile-and-run, and the per-core cycle
   accounting check.  Keep this file dependency-light — it is linked
   into every test executable that lists it. *)

open Finepar_ir
open Finepar_machine

let b () = Program.Builder.create ()

let one_core ?(arrays = [||]) ?(queues = [||]) code_builder =
  let bb = b () in
  code_builder bb;
  { Program.cores = [| Program.Builder.finish bb |]; queues; arrays }

let two_cores ?(arrays = [||]) ~queues build0 build1 =
  let b0 = b () and b1 = b () in
  build0 b0;
  build1 b1;
  {
    Program.cores = [| Program.Builder.finish b0; Program.Builder.finish b1 |];
    queues;
    arrays;
  }

(* Build a simulator over [program] and run it to completion under the
   selected engine (default: the cycle stepper, the reference semantics
   these suites test). *)
let run ?(config = Config.default) ?tracing ?(engine = Engine.Cycle)
    ?(initial = []) program =
  let sim = Sim.create ?tracing ~config ~initial program in
  let cycles = Sim.run ~engine sim in
  (sim, cycles)

(* A single int queue from core 0 to core 1. *)
let q01 = [| { Isa.src = 0; dst = 1; cls = Isa.Qint } |]

let farr_layout name len base =
  { Program.arr_name = name; arr_ty = Types.F64; arr_len = len; arr_base = base }

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Compile a registry kernel at [cores] and run it (tracing on) on its
   own workload under the selected engine (default: the cycle stepper);
   returns the compiled program and the finished simulator. *)
let sim_of ?(engine = Engine.Cycle) ~cores name =
  let e =
    match Finepar_kernels.Registry.find name with
    | Some e -> e
    | None -> Alcotest.failf "kernel %s not in registry" name
  in
  let c =
    Finepar.Compiler.compile
      (Finepar.Compiler.default_config ~cores ())
      e.Finepar_kernels.Registry.kernel
  in
  let _, sim =
    Finepar.Runner.run_with_sim ~tracing:true ~engine
      ~workload:e.Finepar_kernels.Registry.workload c
  in
  (c, sim)

(* The telemetry accounting invariant: every (core, cycle) lands in
   exactly one counter, so each core's accounted cycles equal the run's
   total. *)
let check_accounting name (sim : Sim.t) =
  let cycles = sim.Sim.cycles in
  Array.iteri
    (fun i s ->
      Alcotest.(check int)
        (Printf.sprintf "%s core %d: every cycle accounted" name i)
        cycles (Sim.accounted_cycles s))
    sim.Sim.stats

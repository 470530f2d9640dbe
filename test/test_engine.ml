(* Differential tests for the simulation engines: the cycle stepper is
   the reference semantics, and the compiled engine (pre-specialized
   closures with quiescent fast-forward) must be cycle-exact to it: identical final cycle counts,
   bit-identical architectural outputs, identical telemetry reports
   (every counter, stall-episode histogram and queue-occupancy
   histogram) and identical structured [Stuck] payloads.  Covered here:

   - the full kernel registry x {2, 4} cores x {default,
     high-transfer-latency, SMT core_map} configurations, crossed with
     issue widths {1, 2} and both transfer realizations (hardware
     queues / shared-cache valid-flag handshakes);
   - hand-built dual-issue units: an issue bundle split by a RAW hazard
     (the refused slot records no stall), and a shared-cache consumer
     whose flag read races the producer's flag write in the same cycle;
   - the checked-in fuzz corpus, each case under its own recorded
     configuration and placement;
   - hand-built deadlock / max-cycles / boundary programs (Stuck payload
     equality, including the cycle the simulator gave up at);
   - a latency-dominated pipeline where almost the whole run is
     fast-forwarded, checking every per-core counter survives the jump;
   - traced runs: the same event list, in the same order, under both
     engines (a traced run steps every cycle);
   - specialization edge cases for the compiled engine: indirect
     addressing (including the out-of-bounds fault payload), data-
     dependent trip counts, the staggered halt handshake, and the
     one-sim-only contract of [Sim.specialize];
   - a qcheck property over random lib/fuzz cases: cross-engine
     equality plus the per-core accounting invariant under every
     engine. *)

open Finepar_ir
open Finepar_machine
module Compiler = Finepar.Compiler
module Runner = Finepar.Runner
module Registry = Finepar_kernels.Registry

let engines = Engine.all

let report_json (r : Runner.run) =
  Finepar_telemetry.Json.to_string (Finepar.Report.to_json r.Runner.telemetry)

let check_pair what (a : Runner.run) (b : Runner.run) =
  Alcotest.(check int) (what ^ ": cycle counts equal") a.Runner.cycles
    b.Runner.cycles;
  Alcotest.(check bool)
    (what ^ ": outputs bit-identical")
    true
    (Eval.result_equal a.Runner.result b.Runner.result);
  Alcotest.(check string)
    (what ^ ": telemetry reports identical")
    (report_json a) (report_json b)

(* Run [what] under every engine via [run_of] and check each non-head
   engine against the head (the cycle stepper, by [Engine.all]'s
   order). *)
let check_all what run_of =
  match List.map (fun e -> (e, run_of e)) engines with
  | [] | [ _ ] -> Alcotest.failf "%s: need at least two engines" what
  | (e0, r0) :: rest ->
    List.iter
      (fun (e, r) ->
        check_pair
          (Printf.sprintf "%s [%s vs %s]" what (Engine.to_string e0)
             (Engine.to_string e))
          r0 r)
      rest

(* ------------------------------------------------------------------ *)
(* Registry differential sweep.                                        *)

(* The machine/placement variants.  The SMT variant packs the program's
   hardware threads two-per-physical-core; the map is sized from the
   compiled program because the partitioner can produce fewer threads
   than the requested core count.  The last three cross the tentpole
   knobs: dual-issue cores, shared-cache transfer lowering, and both at
   once. *)
module Comm = Finepar_transform.Comm

let dual = { Config.default with Config.issue_width = 2 }

let variants =
  [
    ("default", Config.default, false, Comm.Queues);
    ("transfer-latency-50", Config.with_transfer_latency 50 Config.default,
     false, Comm.Queues);
    ("smt", Config.default, true, Comm.Queues);
    ("dual-issue", dual, false, Comm.Queues);
    ("shared-cache", Config.default, false, Comm.Shared_cache);
    ("dual-issue+shared-cache", dual, false, Comm.Shared_cache);
  ]

let registry_sweep (e : Registry.entry) () =
  List.iter
    (fun cores ->
      List.iter
        (fun (vname, machine, smt, comm_mode) ->
          let config =
            {
              (Compiler.default_config ~cores ()) with
              Compiler.machine;
              comm_mode;
            }
          in
          let c = Compiler.compile config e.Registry.kernel in
          let n_threads =
            Array.length
              c.Compiler.code.Finepar_codegen.Lower.program
                .Finepar_machine.Program.cores
          in
          let core_map =
            if smt then
              Some (Array.init n_threads (fun i -> i mod max 1 (n_threads / 2)))
            else None
          in
          let what =
            Printf.sprintf "%s cores=%d %s" e.Registry.kernel.Kernel.name cores
              vname
          in
          check_all what (fun engine ->
              Runner.run ~workload:e.Registry.workload ?core_map ~engine c))
        variants)
    [ 2; 4 ]

let registry_cases =
  List.map
    (fun (e : Registry.entry) ->
      Alcotest.test_case e.Registry.kernel.Kernel.name `Quick
        (registry_sweep e))
    Registry.all

(* ------------------------------------------------------------------ *)
(* Fuzz corpus differential.                                           *)

let test_corpus_differential () =
  let files = Finepar_fuzz.Corpus.files Helpers.corpus_dir in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun path ->
      let entry = Finepar_fuzz.Corpus.load_file path in
      let case = entry.Finepar_fuzz.Corpus.case in
      let c =
        Compiler.compile case.Finepar_fuzz.Gen.config
          case.Finepar_fuzz.Gen.kernel
      in
      let n_threads =
        Array.length
          c.Compiler.code.Finepar_codegen.Lower.program
            .Finepar_machine.Program.cores
      in
      let core_map =
        Finepar_fuzz.Gen.materialize case.Finepar_fuzz.Gen.placement n_threads
      in
      let workload =
        Finepar_kernels.Workload.default
          ~seed:case.Finepar_fuzz.Gen.workload_seed case.Finepar_fuzz.Gen.kernel
      in
      check_all (Filename.basename path) (fun engine ->
          Runner.run ~check:false ~workload ~core_map ~engine c))
    files

(* ------------------------------------------------------------------ *)
(* Stuck payload equality.                                             *)

(* Run [program] under one engine; returns the structured Stuck payload
   and the partial-run simulator, or the cycle count if it finished. *)
let stuck_of ?(config = Config.default) program engine =
  let sim = Sim.create ~config ~initial:[] program in
  match Sim.run ~engine sim with
  | cycles -> Error cycles
  | exception Sim.Stuck st -> Ok (st, sim)

let check_stuck_pair what ?config program =
  match List.map (fun e -> (e, stuck_of ?config program e)) engines with
  | [] | [ _ ] -> Alcotest.failf "%s: need at least two engines" what
  | (e0, head) :: rest ->
    List.iter
      (fun (e, outcome) ->
        let what =
          Printf.sprintf "%s [%s vs %s]" what (Engine.to_string e0)
            (Engine.to_string e)
        in
        match (head, outcome) with
        | Ok (a, sim_a), Ok (b, sim_b) ->
          Alcotest.(check int)
            (what ^ ": stuck at the same cycle")
            a.Sim.st_cycle b.Sim.st_cycle;
          Alcotest.(check string)
            (what ^ ": identical stuck message")
            (Sim.stuck_message a) (Sim.stuck_message b);
          Alcotest.(check bool)
            (what ^ ": identical blocked set")
            true
            (a.Sim.st_blocked = b.Sim.st_blocked);
          Alcotest.(check bool)
            (what ^ ": identical queue occupancies")
            true
            (a.Sim.st_queues = b.Sim.st_queues);
          (* The partial run's accounting must also agree, per core. *)
          Array.iteri
            (fun i (sa : Sim.core_stats) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: core %d stats equal" what i)
                true
                (sa = sim_b.Sim.stats.(i)))
            sim_a.Sim.stats
        | Error cy_a, Error cy_b ->
          Alcotest.failf "%s: expected Stuck, both engines finished (%d, %d)"
            what cy_a cy_b
        | Ok _, Error cy | Error cy, Ok _ ->
          Alcotest.failf
            "%s: one engine finished in %d cycles, the other got stuck" what cy)
      rest

let test_deadlock_payloads () =
  (* A consumer dequeuing from a queue that is never fed. *)
  let starved =
    Helpers.two_cores ~queues:Helpers.q01
      (fun bb -> Program.Builder.emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb Isa.Halt)
  in
  check_stuck_pair "starved consumer" starved;
  (* Crossed dependency: each core first dequeues what the other has not
     yet sent — a two-core wait-for cycle. *)
  let crossed =
    Helpers.two_cores
      ~queues:
        [|
          { Isa.src = 0; dst = 1; cls = Isa.Qint };
          { Isa.src = 1; dst = 0; cls = Isa.Qint };
        |]
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 1));
        emit bb (Isa.Enq (0, d));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb (Isa.Enq (1, d));
        emit bb Isa.Halt)
  in
  check_stuck_pair "crossed dequeues" crossed

let infinite_loop =
  Helpers.one_core (fun bb ->
      let open Program.Builder in
      let r = fresh_reg bb in
      emit bb (Isa.Li (r, Types.VInt 1));
      let top = fresh_label bb in
      place_label bb top;
      emit bb (Isa.Bin (Types.Add, r, r, r));
      emit bb (Isa.Jmp top))

let test_max_cycles_payloads () =
  let config = { Config.default with Config.max_cycles = 50 } in
  check_stuck_pair "max-cycles budget" ~config infinite_loop

let test_max_cycles_boundary () =
  (* A run that halts in exactly max_cycles completes under both engines
     (the budget is an inclusive bound); one cycle less and both raise at
     the same cycle. *)
  let program =
    Helpers.one_core (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 41));
        emit bb (Isa.Un (Types.Neg, r, r));
        emit bb Isa.Halt)
  in
  let _, cycles = Helpers.run program in
  let config = { Config.default with Config.max_cycles = cycles } in
  List.iter
    (fun engine ->
      let _, cy = Helpers.run ~config ~engine program in
      Alcotest.(check int)
        (Printf.sprintf "%s engine finishes on the boundary"
           (Engine.to_string engine))
        cycles cy)
    engines;
  let tight = { Config.default with Config.max_cycles = cycles - 1 } in
  check_stuck_pair "one below the boundary" ~config:tight program

(* ------------------------------------------------------------------ *)
(* Fast-forward behaviour on a latency-dominated pipeline.              *)

let test_fast_forward_counters () =
  (* One value crosses a transfer_latency=100 queue: the consumer's wait
     is almost entirely fast-forwardable, and every counter the stepper
     records must survive the jump unchanged. *)
  let config =
    { (Config.with_transfer_latency 100 Config.default) with
      Config.queue_len = 1
    }
  in
  let program =
    Helpers.two_cores ~queues:Helpers.q01
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 7));
        emit bb (Isa.Enq (0, r));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb and e = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb (Isa.Bin (Types.Add, e, d, d));
        emit bb Isa.Halt)
  in
  let sim_c, cy_c = Helpers.run ~config ~engine:Engine.Cycle program in
  Alcotest.(check bool) "consumer waited out the transfer latency" true
    (sim_c.Sim.stats.(1).Sim.stall_queue_empty > 90);
  Helpers.check_accounting "fast-forward (cycle)" sim_c;
  List.iter
    (fun engine ->
      let name = Engine.to_string engine in
      let sim_e, cy_e = Helpers.run ~config ~engine program in
      Alcotest.(check int) (name ^ ": cycle counts equal") cy_c cy_e;
      Array.iteri
        (fun i (sc : Sim.core_stats) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: core %d stats equal" name i)
            true
            (sc = sim_e.Sim.stats.(i)))
        sim_c.Sim.stats;
      Alcotest.(check bool)
        (name ^ ": stall-episode histograms equal")
        true
        (Array.for_all2
           (fun a b ->
             Finepar_telemetry.Histogram.buckets a
             = Finepar_telemetry.Histogram.buckets b)
           sim_c.Sim.stall_hist sim_e.Sim.stall_hist);
      Alcotest.(check bool)
        (name ^ ": dequeued value identical")
        true
        (Types.value_equal (Sim.reg_value sim_c 1 1) (Sim.reg_value sim_e 1 1));
      Helpers.check_accounting ("fast-forward (" ^ name ^ ")") sim_e)
    (List.filter (fun e -> e <> Engine.Cycle) engines)

(* A traced run records the same events in the same order under both
   engines: [Sim.events] promises oldest first, and the ring keeps a
   suffix of that order once it overflows.  A high transfer latency with
   short queues leaves long quiescent windows, with every core blocked,
   that the untraced compiled engine would skip; the SMT placement adds
   arbitration losses to them.  The ring is sized so nothing drops. *)
let test_traced_event_order () =
  let entry =
    List.find
      (fun (e : Registry.entry) -> e.Registry.kernel.Kernel.name = "lammps-3")
      Registry.all
  in
  let machine =
    { (Config.with_transfer_latency 100 Config.default) with
      Config.queue_len = 2
    }
  in
  let c =
    Compiler.compile
      { (Compiler.default_config ~cores:4 ()) with Compiler.machine }
      entry.Registry.kernel
  in
  let n_threads =
    Array.length
      c.Compiler.code.Finepar_codegen.Lower.program.Finepar_machine.Program.cores
  in
  let smt = Array.init n_threads (fun i -> i mod max 1 (n_threads / 2)) in
  List.iter
    (fun (what, core_map) ->
      let events engine =
        let _, sim =
          Runner.run_with_sim ~workload:entry.Registry.workload ?core_map
            ~tracing:true ~trace_capacity:(1 lsl 21) ~engine c
        in
        Alcotest.(check int) (what ^ ": nothing dropped") 0
          (Sim.dropped_events sim);
        Array.of_list (Sim.events sim)
      in
      let ref_evs = events Engine.Cycle in
      let cmp_evs = events Engine.Compiled in
      let n = min (Array.length ref_evs) (Array.length cmp_evs) in
      let i = ref 0 in
      while !i < n && compare ref_evs.(!i) cmp_evs.(!i) = 0 do
        incr i
      done;
      Alcotest.(check int)
        (what ^ ": events equal up to the first mismatch")
        (Array.length ref_evs) !i;
      Alcotest.(check int)
        (what ^ ": event counts equal")
        (Array.length ref_evs) (Array.length cmp_evs))
    [ ("lammps-3 latency=100 queue-len=2", None); ("same, SMT", Some smt) ]

let test_engine_names () =
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Engine.to_string e ^ " round-trips")
        true
        (Engine.of_string (Engine.to_string e) = Some e))
    Engine.all;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true
        (Engine.of_string name = None))
    [ "warp"; "event" ]

(* ------------------------------------------------------------------ *)
(* Compiled-engine specialization edge cases.                           *)

(* Indirect addressing: the specialized Load/Store closures resolve the
   array to a direct slot at specialize time, but the index register is
   read at run time — in bounds the access must behave like the stepper,
   and out of bounds it must raise the stepper's exact fault payload. *)
let test_specialize_indirect () =
  let arrays = [| Helpers.farr_layout "a" 4 64 |] in
  let in_bounds =
    Helpers.one_core ~arrays (fun bb ->
        let open Program.Builder in
        let v = fresh_reg bb and idx = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Li (v, Types.VFloat 2.5));
        emit bb (Isa.Li (idx, Types.VInt 3));
        emit bb (Isa.Store (0, idx, v));
        emit bb (Isa.Load (d, 0, idx));
        emit bb Isa.Halt)
  in
  (match List.map (fun engine -> Helpers.run ~engine in_bounds) engines with
  | (sim0, cy0) :: rest ->
    List.iter
      (fun (sim, cy) ->
        Alcotest.(check int) "indirect store/load: cycles equal" cy0 cy;
        Alcotest.(check bool) "indirect store/load: value equal" true
          (Types.value_equal (Sim.reg_value sim0 0 2) (Sim.reg_value sim 0 2)))
      rest
  | _ -> assert false);
  let out_of_bounds =
    Helpers.one_core ~arrays (fun bb ->
        let open Program.Builder in
        let idx = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Li (idx, Types.VInt 9));
        emit bb (Isa.Load (d, 0, idx));
        emit bb Isa.Halt)
  in
  check_stuck_pair "out-of-bounds indirect load" out_of_bounds

(* Data-dependent trip counts: the branch targets are baked at
   specialize time but the taken/not-taken decision is a run-time value,
   so the same specialized code must walk a workload-sized loop.  Two
   workloads with different bounds keep the engines in lockstep on
   both. *)
let test_specialize_trip_counts () =
  let arrays =
    [| { Program.arr_name = "n"; arr_ty = Types.I64; arr_len = 1; arr_base = 64 } |]
  in
  let program =
    Helpers.one_core ~arrays (fun bb ->
        let open Program.Builder in
        let n = fresh_reg bb
        and one = fresh_reg bb
        and acc = fresh_reg bb
        and idx = fresh_reg bb in
        emit bb (Isa.Li (idx, Types.VInt 0));
        emit bb (Isa.Load (n, 0, idx));
        emit bb (Isa.Li (one, Types.VInt 1));
        emit bb (Isa.Li (acc, Types.VInt 0));
        let top = fresh_label bb in
        place_label bb top;
        emit bb (Isa.Bin (Types.Add, acc, acc, n));
        emit bb (Isa.Bin (Types.Sub, n, n, one));
        emit bb (Isa.Bnz (n, top));
        emit bb Isa.Halt)
  in
  let sum_to k = k * (k + 1) / 2 in
  List.iter
    (fun trip ->
      let initial = [ ("n", [| Types.VInt trip |]) ] in
      match
        List.map (fun engine -> Helpers.run ~engine ~initial program) engines
      with
      | (sim0, cy0) :: rest ->
        Alcotest.(check bool)
          (Printf.sprintf "trip=%d: loop actually summed" trip)
          true
          (Types.value_equal (Sim.reg_value sim0 0 2)
             (Types.VInt (sum_to trip)));
        List.iter
          (fun (sim, cy) ->
            Alcotest.(check int)
              (Printf.sprintf "trip=%d: cycles equal" trip)
              cy0 cy;
            Array.iteri
              (fun i (s0 : Sim.core_stats) ->
                Alcotest.(check bool)
                  (Printf.sprintf "trip=%d: core %d stats equal" trip i)
                  true
                  (s0 = sim.Sim.stats.(i)))
              sim0.Sim.stats)
          rest
      | _ -> assert false)
    [ 1; 5; 13 ]

(* The spawn/halt handshake: cores retire at different cycles, and the
   [idle_after_halt] / [finished_at] accounting of the early finishers
   must survive both the live-count bookkeeping of the compiled engine
   and its fast-forward windows. *)
let test_specialize_halt_handshake () =
  let queues = [| { Isa.src = 1; dst = 2; cls = Isa.Qint } |] in
  let core0 bb = Program.Builder.emit bb Isa.Halt in
  let core1 bb =
    let open Program.Builder in
    let n = fresh_reg bb and one = fresh_reg bb in
    emit bb (Isa.Li (n, Types.VInt 4));
    emit bb (Isa.Li (one, Types.VInt 1));
    let top = fresh_label bb in
    place_label bb top;
    emit bb (Isa.Enq (0, n));
    emit bb (Isa.Bin (Types.Sub, n, n, one));
    emit bb (Isa.Bnz (n, top));
    emit bb Isa.Halt
  in
  let core2 bb =
    let open Program.Builder in
    let d = fresh_reg bb and acc = fresh_reg bb in
    emit bb (Isa.Li (acc, Types.VInt 0));
    for _ = 1 to 4 do
      emit bb (Isa.Deq (d, 0));
      emit bb (Isa.Bin (Types.Add, acc, acc, d))
    done;
    emit bb Isa.Halt
  in
  let program =
    let b0 = Helpers.b () and b1 = Helpers.b () and b2 = Helpers.b () in
    core0 b0;
    core1 b1;
    core2 b2;
    {
      Program.cores =
        [|
          Program.Builder.finish b0;
          Program.Builder.finish b1;
          Program.Builder.finish b2;
        |];
      queues;
      arrays = [||];
    }
  in
  match List.map (fun engine -> Helpers.run ~engine program) engines with
  | (sim0, cy0) :: rest ->
    Alcotest.(check bool) "core 0 idled after its early halt" true
      (sim0.Sim.stats.(0).Sim.idle_after_halt > 0);
    Alcotest.(check bool) "cores retired at distinct cycles" true
      (sim0.Sim.stats.(0).Sim.finished_at < sim0.Sim.stats.(1).Sim.finished_at
      && sim0.Sim.stats.(1).Sim.finished_at
         < sim0.Sim.stats.(2).Sim.finished_at);
    Helpers.check_accounting "halt handshake (head)" sim0;
    List.iter
      (fun (sim, cy) ->
        Alcotest.(check int) "halt handshake: cycles equal" cy0 cy;
        Array.iteri
          (fun i (s0 : Sim.core_stats) ->
            Alcotest.(check bool)
              (Printf.sprintf "halt handshake: core %d stats equal" i)
              true
              (s0 = sim.Sim.stats.(i)))
          sim0.Sim.stats)
      rest
  | _ -> assert false

(* A specialized value is bound to the sim it was compiled from. *)
let test_specialize_one_sim_only () =
  let program =
    Helpers.one_core (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        emit bb Isa.Halt)
  in
  let sim_a = Sim.create ~config:Config.default ~initial:[] program in
  let sim_b = Sim.create ~config:Config.default ~initial:[] program in
  let spec = Sim.specialize sim_a in
  Alcotest.check_raises "foreign specialization rejected"
    (Invalid_argument "Sim.run: specialized value belongs to a different sim")
    (fun () ->
      ignore (Sim.run ~engine:Engine.Compiled ~specialized:spec sim_b));
  Alcotest.(check bool) "the right sim still runs" true
    (Sim.run ~engine:Engine.Compiled ~specialized:spec sim_a > 0)

(* ------------------------------------------------------------------ *)
(* Dual-issue and shared-cache hand-built units.                        *)

(* An issue bundle split by a RAW hazard: at width 2 the two Li's pair
   up, the first Add issues alone (its consumer reads a result that is
   only ready next cycle), and the dependent Add then pairs with a
   following independent one.  The refused slot must record NO stall —
   the cycle is already accounted to the slot-1 issue. *)
let test_dual_issue_raw_split () =
  let program =
    Helpers.one_core (fun bb ->
        let open Program.Builder in
        let r0 = fresh_reg bb
        and r1 = fresh_reg bb
        and r2 = fresh_reg bb
        and r3 = fresh_reg bb
        and r4 = fresh_reg bb in
        emit bb (Isa.Li (r0, Types.VInt 1));
        emit bb (Isa.Li (r1, Types.VInt 2));
        emit bb (Isa.Bin (Types.Add, r2, r0, r1));
        emit bb (Isa.Bin (Types.Add, r3, r2, r2));
        emit bb (Isa.Bin (Types.Add, r4, r0, r1));
        emit bb Isa.Halt)
  in
  let wide = { Config.default with Config.issue_width = 2 } in
  (match List.map (fun engine -> Helpers.run ~config:wide ~engine program) engines
   with
  | (sim0, cy0) :: rest ->
    Alcotest.(check int) "width 2: Li pair and Add pair dual-issued" 2
      sim0.Sim.stats.(0).Sim.dual_issued;
    Alcotest.(check int) "width 2: the refused slot recorded no stall" 0
      (Sim.stall_total sim0.Sim.stats.(0));
    Alcotest.(check bool) "width 2: dependent Add computed through the split"
      true
      (Types.value_equal (Sim.reg_value sim0 0 3) (Types.VInt 6));
    Helpers.check_accounting "raw split (head)" sim0;
    List.iter
      (fun (sim, cy) ->
        Alcotest.(check int) "raw split: cycles equal" cy0 cy;
        Array.iteri
          (fun i (s0 : Sim.core_stats) ->
            Alcotest.(check bool)
              (Printf.sprintf "raw split: core %d stats equal" i)
              true
              (s0 = sim.Sim.stats.(i)))
          sim0.Sim.stats;
        Helpers.check_accounting "raw split (other)" sim)
      rest
  | _ -> assert false);
  (* The same program at width 1 never dual-issues and takes strictly
     longer. *)
  let sim1, cy1 = Helpers.run program in
  let _, cy2 = Helpers.run ~config:wide program in
  Alcotest.(check int) "width 1: no dual issues" 0
    sim1.Sim.stats.(0).Sim.dual_issued;
  Alcotest.(check bool) "width 2 is strictly faster" true (cy2 < cy1)

(* A shared-cache style handshake built by hand: the consumer spins on a
   valid flag the producer sets after writing the data word.  The
   consumer's flag load can land in the same cycle as the producer's
   flag store; the deterministic core sweep order resolves the race, and
   every engine must resolve it identically.  Both producer placements
   are run so the race is exercised from both sides of the sweep. *)
let shared_handshake ~producer_first =
  let arrays =
    [|
      { Program.arr_name = "flag"; arr_ty = Types.I64; arr_len = 1; arr_base = 64 };
      { Program.arr_name = "data"; arr_ty = Types.I64; arr_len = 1; arr_base = 128 };
    |]
  in
  let producer bb =
    let open Program.Builder in
    let v = fresh_reg bb and z = fresh_reg bb and one = fresh_reg bb in
    emit bb (Isa.Li (v, Types.VInt 42));
    emit bb (Isa.Li (z, Types.VInt 0));
    emit bb (Isa.Li (one, Types.VInt 1));
    emit bb (Isa.Store (1, z, v));
    emit bb (Isa.Store (0, z, one));
    emit bb Isa.Halt
  in
  let consumer bb =
    let open Program.Builder in
    let z = fresh_reg bb and f = fresh_reg bb and d = fresh_reg bb in
    emit bb (Isa.Li (z, Types.VInt 0));
    let spin = fresh_label bb in
    place_label bb spin;
    emit bb (Isa.Load (f, 0, z));
    emit bb (Isa.Bz (f, spin));
    emit bb (Isa.Load (d, 1, z));
    emit bb Isa.Halt
  in
  if producer_first then
    Helpers.two_cores ~arrays ~queues:[||] producer consumer
  else Helpers.two_cores ~arrays ~queues:[||] consumer producer

let test_shared_flag_race () =
  List.iter
    (fun producer_first ->
      let what =
        if producer_first then "producer swept first" else "consumer swept first"
      in
      let program = shared_handshake ~producer_first in
      let consumer_core = if producer_first then 1 else 0 in
      match List.map (fun engine -> Helpers.run ~engine program) engines with
      | (sim0, cy0) :: rest ->
        Alcotest.(check bool)
          (what ^ ": consumer read the data word, not a torn value")
          true
          (Types.value_equal
             (Sim.reg_value sim0 consumer_core 2)
             (Types.VInt 42));
        Alcotest.(check bool) (what ^ ": consumer actually spun") true
          (sim0.Sim.stats.(consumer_core).Sim.instrs > 5);
        Helpers.check_accounting (what ^ " (head)") sim0;
        List.iter
          (fun (sim, cy) ->
            Alcotest.(check int) (what ^ ": cycles equal") cy0 cy;
            Alcotest.(check bool)
              (what ^ ": consumer value equal")
              true
              (Types.value_equal
                 (Sim.reg_value sim consumer_core 2)
                 (Sim.reg_value sim0 consumer_core 2));
            Array.iteri
              (fun i (s0 : Sim.core_stats) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: core %d stats equal" what i)
                  true
                  (s0 = sim.Sim.stats.(i)))
              sim0.Sim.stats)
          rest
      | _ -> assert false)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* qcheck: random cases are cycle-exact across engines.                 *)

let arbitrary_case =
  QCheck.make
    (QCheck.Gen.map
       (fun seed -> Finepar_fuzz.Gen.case_of_seed seed)
       (QCheck.Gen.int_bound 1_000_000))
    ~print:(fun case ->
      Fmt.to_to_string Kernel.pp case.Finepar_fuzz.Gen.kernel)

let prop_cross_engine =
  QCheck.Test.make ~count:80
    ~name:"random cases: all engines agree and account every cycle"
    arbitrary_case
    (fun case ->
      match
        Compiler.compile case.Finepar_fuzz.Gen.config
          case.Finepar_fuzz.Gen.kernel
      with
      | exception _ -> true (* rejected cases are the fuzz driver's concern *)
      | c -> (
        let n_threads =
          Array.length
            c.Compiler.code.Finepar_codegen.Lower.program
              .Finepar_machine.Program.cores
        in
        let core_map =
          Finepar_fuzz.Gen.materialize case.Finepar_fuzz.Gen.placement n_threads
        in
        let workload =
          Finepar_kernels.Workload.default
            ~seed:case.Finepar_fuzz.Gen.workload_seed
            case.Finepar_fuzz.Gen.kernel
        in
        let outcome engine =
          match
            Runner.run_with_sim ~check:false ~workload ~core_map ~engine c
          with
          | run, sim -> Ok (run, sim)
          | exception Sim.Stuck st -> Error (Sim.stuck_message st)
          | exception e -> Error (Printexc.to_string e)
        in
        let accounted (sim : Sim.t) =
          Array.for_all
            (fun s -> Sim.accounted_cycles s = sim.Sim.cycles)
            sim.Sim.stats
        in
        let agrees head other =
          match (head, other) with
          | Ok ((run_c : Runner.run), _), Ok ((run_e : Runner.run), sim_e) ->
            run_c.Runner.cycles = run_e.Runner.cycles
            && Eval.result_equal run_c.Runner.result run_e.Runner.result
            && String.equal (report_json run_c) (report_json run_e)
            && accounted sim_e
          | Error a, Error b -> String.equal a b
          | Ok _, Error _ | Error _, Ok _ -> false
        in
        match List.map outcome engines with
        | [] | [ _ ] -> false
        | head :: rest ->
          (match head with Ok (_, sim) -> accounted sim | Error _ -> true)
          && List.for_all (agrees head) rest))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ("registry", registry_cases);
      ( "corpus",
        [
          Alcotest.test_case "corpus differential" `Quick
            test_corpus_differential;
        ] );
      ( "stuck",
        [
          Alcotest.test_case "deadlock payloads" `Quick test_deadlock_payloads;
          Alcotest.test_case "max-cycles payloads" `Quick
            test_max_cycles_payloads;
          Alcotest.test_case "max-cycles boundary" `Quick
            test_max_cycles_boundary;
        ] );
      ( "fast-forward",
        [
          Alcotest.test_case "latency-dominated pipeline" `Quick
            test_fast_forward_counters;
          Alcotest.test_case "traced runs step every cycle" `Quick
            test_traced_event_order;
          Alcotest.test_case "engine names" `Quick test_engine_names;
        ] );
      ( "specialize",
        [
          Alcotest.test_case "indirect addressing" `Quick
            test_specialize_indirect;
          Alcotest.test_case "data-dependent trip counts" `Quick
            test_specialize_trip_counts;
          Alcotest.test_case "halt handshake" `Quick
            test_specialize_halt_handshake;
          Alcotest.test_case "one sim only" `Quick test_specialize_one_sim_only;
        ] );
      ( "dual-issue+shared-cache",
        [
          Alcotest.test_case "RAW hazard splits the bundle" `Quick
            test_dual_issue_raw_split;
          Alcotest.test_case "flag read races the flag write" `Quick
            test_shared_flag_race;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_cross_engine ] );
    ]

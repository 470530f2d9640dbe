(* Machine simulator tests: ISA semantics, queue blocking (the Fig. 11
   contract), cache latencies, the program builder, deadlock detection,
   and statistics. *)

open Finepar_ir
open Finepar_machine

(* Program/config builders shared with the verifier, telemetry and
   engine suites live in [Helpers]. *)
let b = Helpers.b
let one_core = Helpers.one_core
let two_cores = Helpers.two_cores
let run = Helpers.run
let q01 = Helpers.q01
let farr_layout = Helpers.farr_layout

(* ------------------------------------------------------------------ *)
(* ISA semantics.                                                      *)

let test_alu_semantics () =
  let program =
    one_core (fun bb ->
        let open Program.Builder in
        let r0 = fresh_reg bb and r1 = fresh_reg bb and r2 = fresh_reg bb in
        emit bb (Isa.Li (r0, Types.VInt 6));
        emit bb (Isa.Li (r1, Types.VInt 7));
        emit bb (Isa.Bin (Types.Mul, r2, r0, r1));
        emit bb (Isa.Un (Types.Neg, r2, r2));
        emit bb Isa.Halt)
  in
  let sim, _ = run program in
  Alcotest.(check bool) "6*7 negated" true
    (Types.value_equal (Sim.reg_value sim 0 2) (Types.VInt (-42)))

let test_select () =
  let program =
    one_core (fun bb ->
        let open Program.Builder in
        let c = fresh_reg bb and t = fresh_reg bb and f = fresh_reg bb in
        let d = fresh_reg bb in
        emit bb (Isa.Li (c, Types.VInt 0));
        emit bb (Isa.Li (t, Types.VFloat 1.0));
        emit bb (Isa.Li (f, Types.VFloat 2.0));
        emit bb (Isa.Sel (d, c, t, f));
        emit bb Isa.Halt)
  in
  let sim, _ = run program in
  Alcotest.(check bool) "select false arm" true
    (Types.value_equal (Sim.reg_value sim 0 3) (Types.VFloat 2.0))

let test_branches_and_labels () =
  (* Sum 0..9 with a loop. *)
  let program =
    one_core (fun bb ->
        let open Program.Builder in
        let idx = fresh_reg bb and acc = fresh_reg bb in
        let one = fresh_reg bb and ten = fresh_reg bb and t = fresh_reg bb in
        emit bb (Isa.Li (idx, Types.VInt 0));
        emit bb (Isa.Li (acc, Types.VInt 0));
        emit bb (Isa.Li (one, Types.VInt 1));
        emit bb (Isa.Li (ten, Types.VInt 10));
        let top = fresh_label bb in
        place_label bb top;
        emit bb (Isa.Bin (Types.Add, acc, acc, idx));
        emit bb (Isa.Bin (Types.Add, idx, idx, one));
        emit bb (Isa.Bin (Types.Lt, t, idx, ten));
        emit bb (Isa.Bnz (t, top));
        emit bb Isa.Halt)
  in
  let sim, _ = run program in
  Alcotest.(check bool) "sum 0..9 = 45" true
    (Types.value_equal (Sim.reg_value sim 0 1) (Types.VInt 45))

let test_memory_roundtrip () =
  let arrays = [| farr_layout "a" 4 64 |] in
  let program =
    one_core ~arrays (fun bb ->
        let open Program.Builder in
        let v = fresh_reg bb and idx = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Li (v, Types.VFloat 2.5));
        emit bb (Isa.Li (idx, Types.VInt 2));
        emit bb (Isa.Store (0, idx, v));
        emit bb (Isa.Load (d, 0, idx));
        emit bb Isa.Halt)
  in
  let sim, _ = run program in
  Alcotest.(check bool) "store then load" true
    (Types.value_equal (Sim.reg_value sim 0 2) (Types.VFloat 2.5));
  Alcotest.(check bool) "memory updated" true
    (Types.value_equal (Sim.array_contents sim "a").(2) (Types.VFloat 2.5))

let test_bounds_checked () =
  let arrays = [| farr_layout "a" 4 64 |] in
  let program =
    one_core ~arrays (fun bb ->
        let open Program.Builder in
        let idx = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Li (idx, Types.VInt 9));
        emit bb (Isa.Load (d, 0, idx));
        emit bb Isa.Halt)
  in
  Alcotest.(check bool) "out-of-bounds load raises" true
    (try
       ignore (run program);
       false
     with Sim.Stuck _ -> true)

(* ------------------------------------------------------------------ *)
(* Queue semantics (Fig. 11).                                          *)

(* Core 0: [W cycles of work]; Enq.  Core 1: Deq immediately. *)
let producer_consumer ~work0 ~work1 =
  two_cores ~queues:q01
    (fun bb ->
      let open Program.Builder in
      let r = fresh_reg bb and acc = fresh_reg bb in
      emit bb (Isa.Li (r, Types.VInt 5));
      emit bb (Isa.Li (acc, Types.VInt 0));
      for _ = 1 to work0 do
        emit bb (Isa.Bin (Types.Add, acc, acc, r))
      done;
      emit bb (Isa.Enq (0, r));
      emit bb Isa.Halt)
    (fun bb ->
      let open Program.Builder in
      let acc = fresh_reg bb and d = fresh_reg bb in
      emit bb (Isa.Li (acc, Types.VInt 0));
      for _ = 1 to work1 do
        emit bb (Isa.Bin (Types.Add, acc, acc, acc))
      done;
      emit bb (Isa.Deq (d, 0));
      emit bb Isa.Halt)

let deq_completion_cycle sim =
  List.filter_map
    (function
      | Sim.Ev_issue { core = 1; cycle; instr = Isa.Deq _; _ } -> Some cycle
      | _ -> None)
    (Sim.events sim)
  |> List.hd

let enq_issue_cycle sim =
  List.filter_map
    (function
      | Sim.Ev_issue { core = 0; cycle; instr = Isa.Enq _; _ } -> Some cycle
      | _ -> None)
    (Sim.events sim)
  |> List.hd

let test_early_dequeue_stalls () =
  let config = { Config.default with Config.transfer_latency = 7 } in
  let program = producer_consumer ~work0:40 ~work1:0 in
  let sim, _ = run ~config ~tracing:true program in
  let enq = enq_issue_cycle sim and deq = deq_completion_cycle sim in
  Alcotest.(check int) "dequeue waits exactly transfer latency" (enq + 7) deq;
  Alcotest.(check bool) "consumer recorded stalls" true
    (sim.Sim.stats.(1).Sim.stall_queue_empty > 0)

let test_late_dequeue_no_stall () =
  let config = { Config.default with Config.transfer_latency = 7 } in
  let program = producer_consumer ~work0:5 ~work1:200 in
  let sim, _ = run ~config ~tracing:true program in
  let enq = enq_issue_cycle sim and deq = deq_completion_cycle sim in
  Alcotest.(check bool) "dequeue proceeds immediately" true (deq > enq + 7)

let test_dequeued_value () =
  let program = producer_consumer ~work0:3 ~work1:0 in
  let sim, _ = run program in
  Alcotest.(check bool) "value crossed the queue" true
    (Types.value_equal (Sim.reg_value sim 1 1) (Types.VInt 5))

let test_queue_full_blocks () =
  (* Producer enqueues queue_len + 3 values; consumer dequeues them all
     only after a long delay; with tracing we can see full-queue stalls. *)
  let config = { Config.default with Config.queue_len = 4 } in
  let n = 7 in
  let program =
    two_cores ~queues:q01
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        for _ = 1 to n do
          emit bb (Isa.Enq (0, r))
        done;
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let acc = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Li (acc, Types.VInt 0));
        for _ = 1 to 100 do
          emit bb (Isa.Bin (Types.Add, acc, acc, acc))
        done;
        for _ = 1 to n do
          emit bb (Isa.Deq (d, 0))
        done;
        emit bb Isa.Halt)
  in
  let sim, _ = run ~config program in
  Alcotest.(check bool) "producer saw a full queue" true
    (sim.Sim.stats.(0).Sim.stall_queue_full > 0);
  Alcotest.(check bool) "all transfers completed" true
    (List.for_all (fun (_, transfers, _) -> transfers = n) (Sim.queue_stats sim));
  Alcotest.(check bool) "occupancy bounded by queue length" true
    (List.for_all (fun (_, _, occ) -> occ <= 4) (Sim.queue_stats sim))

let test_fifo_order () =
  let program =
    two_cores ~queues:q01
      (fun bb ->
        let open Program.Builder in
        let r1 = fresh_reg bb and r2 = fresh_reg bb in
        emit bb (Isa.Li (r1, Types.VInt 11));
        emit bb (Isa.Li (r2, Types.VInt 22));
        emit bb (Isa.Enq (0, r1));
        emit bb (Isa.Enq (0, r2));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d1 = fresh_reg bb and d2 = fresh_reg bb in
        emit bb (Isa.Deq (d1, 0));
        emit bb (Isa.Deq (d2, 0));
        emit bb Isa.Halt)
  in
  let sim, _ = run program in
  Alcotest.(check bool) "first in, first out" true
    (Types.value_equal (Sim.reg_value sim 1 0) (Types.VInt 11)
    && Types.value_equal (Sim.reg_value sim 1 1) (Types.VInt 22))

let test_deadlock_detected () =
  (* A consumer dequeuing from an empty queue that is never fed. *)
  let program =
    two_cores ~queues:q01
      (fun bb -> Program.Builder.emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb Isa.Halt)
  in
  match run program with
  | _ -> Alcotest.fail "expected Sim.Stuck"
  | exception Sim.Stuck st ->
    Alcotest.(check bool) "reason is deadlock" true
      (match st.Sim.st_reason with Sim.Deadlock _ -> true | _ -> false);
    Alcotest.(check int) "one blocked core" 1 (List.length st.Sim.st_blocked);
    let bc = List.hd st.Sim.st_blocked in
    Alcotest.(check int) "core 1 is blocked" 1 bc.Sim.bc_core;
    Alcotest.(check bool) "blocked on an empty queue" true
      (bc.Sim.bc_wait = Sim.Wait_queue_empty 0);
    Alcotest.(check bool) "queue 0 reported empty" true
      (List.exists
         (fun (qo : Sim.queue_occupancy) ->
           qo.Sim.qo_id = 0 && qo.Sim.qo_occupancy = 0)
         st.Sim.st_queues);
    Alcotest.(check bool) "message is descriptive" true
      (let msg = Sim.stuck_message st in
       String.length msg > 0)

let test_max_cycles_inclusive () =
  (* An infinite loop under a tiny budget: the run executes exactly
     max_cycles cycles (inclusive bound) and then raises a structured
     Max_cycles. *)
  let config = { Config.default with Config.max_cycles = 50 } in
  let program =
    one_core (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        let top = fresh_label bb in
        place_label bb top;
        emit bb (Isa.Bin (Types.Add, r, r, r));
        emit bb (Isa.Jmp top))
  in
  match run ~config program with
  | _ -> Alcotest.fail "expected Sim.Stuck"
  | exception Sim.Stuck st ->
    Alcotest.(check bool) "reason is max-cycles with the limit" true
      (match st.Sim.st_reason with
      | Sim.Max_cycles { limit } -> limit = 50
      | _ -> false);
    Alcotest.(check int) "stopped exactly at the budget" 50 st.Sim.st_cycle

(* ------------------------------------------------------------------ *)
(* Caches.                                                             *)

let test_cache_hit_miss () =
  let c = Cache.create ~bytes:256 ~line:64 ~span:512 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit after fill" true (Cache.access c 8);
  Alcotest.(check bool) "different line misses" false (Cache.access c 64);
  (* 256-byte direct-mapped cache with 64B lines: addr 0 and 256 conflict. *)
  Alcotest.(check bool) "conflict evicts" false (Cache.access c 256);
  Alcotest.(check bool) "original line was evicted" false (Cache.access c 0);
  Cache.invalidate c 0;
  Alcotest.(check bool) "invalidated line misses" false (Cache.access c 0)

(* Tags sized to the program's span must answer exactly as the full-size
   array does, for every address below the span: a span-sized cache and a
   full one see the same seeded stream of accesses and invalidations. *)
let test_cache_span_matches_full () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun (bytes, line, span, tags) ->
      let small = Cache.create ~bytes ~line ~span
      and full = Cache.create ~bytes ~line ~span:bytes in
      Alcotest.(check int)
        (Printf.sprintf "%d-byte cache, span %d: tags" bytes span)
        tags
        (Array.length small.Cache.tags);
      for i = 1 to 20_000 do
        let addr = Random.State.int rng span in
        if Random.State.int rng 8 = 0 then begin
          Cache.invalidate small addr;
          Cache.invalidate full addr
        end
        else
          Alcotest.(check bool)
            (Printf.sprintf "access %d (addr %d, %d bytes, span %d)" i addr
               bytes span)
            (Cache.access full addr) (Cache.access small addr)
      done)
    [
      (* L1-sized: span below, at and above the cache size. *)
      (16 * 1024, 64, 2_680, 42);
      (16 * 1024, 64, 16 * 1024, 256);
      (16 * 1024, 64, 100_000, 256);
      (* L2-sized: a registry footprint in a 4 MiB L2, and a 4 KiB L2 with
         a span that wraps it. *)
      (4 * 1024 * 1024, 64, 21_128, 331);
      (4 * 1024, 64, 21_128, 64);
    ]

let test_load_latency_tiers () =
  (* Repeated loads of one element: first access goes to memory, later
     accesses hit L1, so total cycles drop sharply per iteration. *)
  let arrays = [| farr_layout "a" 8 64 |] in
  let loads n =
    let program =
      one_core ~arrays (fun bb ->
          let open Program.Builder in
          let idx = fresh_reg bb and d = fresh_reg bb in
          let sink = fresh_reg bb in
          emit bb (Isa.Li (idx, Types.VInt 0));
          for _ = 1 to n do
            emit bb (Isa.Load (d, 0, idx));
            (* Serialize on the loaded value so latencies accumulate. *)
            emit bb (Isa.Bin (Types.Add, sink, d, d))
          done;
          emit bb Isa.Halt)
    in
    let _, cycles = run program in
    cycles
  in
  let one = loads 1 and two = loads 2 in
  Alcotest.(check bool) "second load is an L1 hit" true
    (two - one < Config.default.Config.mem_latency);
  Alcotest.(check bool) "first load pays the memory latency" true
    (one >= Config.default.Config.mem_latency)

let test_per_array_counters () =
  let arrays = [| farr_layout "a" 8 64 |] in
  let program =
    one_core ~arrays (fun bb ->
        let open Program.Builder in
        let idx = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Li (idx, Types.VInt 3));
        emit bb (Isa.Load (d, 0, idx));
        emit bb (Isa.Load (d, 0, idx));
        emit bb Isa.Halt)
  in
  let sim, _ = run program in
  match Sim.load_counters sim with
  | [ ("a", loads, misses) ] ->
    Alcotest.(check int) "two loads" 2 loads;
    Alcotest.(check int) "one miss" 1 misses
  | _ -> Alcotest.fail "unexpected counters"

(* ------------------------------------------------------------------ *)
(* Builder.                                                            *)

let test_unplaced_label_rejected () =
  let bb = b () in
  let l = Program.Builder.fresh_label bb in
  Program.Builder.emit bb (Isa.Jmp l);
  Alcotest.(check bool) "finish rejects unplaced labels" true
    (try
       ignore (Program.Builder.finish bb);
       false
     with Invalid_argument _ -> true)

let test_layout_alignment () =
  let decls =
    [
      { Kernel.a_name = "x"; a_ty = Types.F64; a_len = 5 };
      { Kernel.a_name = "y"; a_ty = Types.F64; a_len = 3 };
    ]
  in
  let layout = Program.layout_arrays ~line:64 decls in
  Alcotest.(check int) "two arrays" 2 (Array.length layout);
  Array.iter
    (fun (l : Program.array_layout) ->
      Alcotest.(check int)
        (l.Program.arr_name ^ " aligned")
        0
        (l.Program.arr_base mod 64))
    layout;
  Alcotest.(check bool) "no overlap" true
    (layout.(1).Program.arr_base >= layout.(0).Program.arr_base + (5 * 8))

let () =
  Alcotest.run "machine"
    [
      ( "isa",
        [
          Alcotest.test_case "alu" `Quick test_alu_semantics;
          Alcotest.test_case "select" `Quick test_select;
          Alcotest.test_case "branches" `Quick test_branches_and_labels;
          Alcotest.test_case "memory" `Quick test_memory_roundtrip;
          Alcotest.test_case "bounds" `Quick test_bounds_checked;
        ] );
      ( "queues",
        [
          Alcotest.test_case "early dequeue stalls (Fig 11)" `Quick
            test_early_dequeue_stalls;
          Alcotest.test_case "late dequeue free (Fig 11)" `Quick
            test_late_dequeue_no_stall;
          Alcotest.test_case "value transfer" `Quick test_dequeued_value;
          Alcotest.test_case "full queue blocks" `Quick test_queue_full_blocks;
          Alcotest.test_case "fifo order" `Quick test_fifo_order;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "max-cycles inclusive bound" `Quick
            test_max_cycles_inclusive;
        ] );
      ( "caches",
        [
          Alcotest.test_case "hit/miss/evict" `Quick test_cache_hit_miss;
          Alcotest.test_case "span-sized tags match full" `Quick
            test_cache_span_matches_full;
          Alcotest.test_case "latency tiers" `Quick test_load_latency_tiers;
          Alcotest.test_case "per-array counters" `Quick
            test_per_array_counters;
        ] );
      ( "builder",
        [
          Alcotest.test_case "unplaced labels" `Quick
            test_unplaced_label_rejected;
          Alcotest.test_case "array layout" `Quick test_layout_alignment;
        ] );
    ]

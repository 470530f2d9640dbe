(** Cycle-level multi-core simulator.

    Cores are in-order, with a register scoreboard: an instruction
    issues once its operands are ready, and at most
    [Config.issue_width] instructions issue per core per cycle (default
    1); results become available after the operation latency.  At width
    W >= 2 a core issues a bundle: after the first issue of a cycle it
    keeps issuing as long as execution fell straight through (pc
    advanced by one, no extra penalty pending, not halted) and the next
    instruction's operands and queue gates are ready — so a RAW hazard,
    a taken branch, or a blocked queue ends the bundle, and a refused
    extra slot records no stall (the cycle is already accounted to the
    bundle's first issue).  Loads consult a private L1 / shared L2 hierarchy.
    Enqueue and dequeue follow the semantics of Section II and Fig. 11:
    enqueue blocks while the queue is full, dequeue blocks until the head
    value's [enqueue time + transfer latency] has elapsed.

    The simulator executes real values, so the outputs of a parallel run
    can be compared bit-for-bit against the reference evaluator. *)

open Finepar_ir

(** What a non-halted core is waiting on when the simulator gives up. *)
type wait =
  | Wait_queue_full of int  (** blocked enqueue: queue id *)
  | Wait_queue_empty of int
      (** blocked dequeue (empty, or head not yet visible): queue id *)
  | Wait_operand  (** a source register's result is still in flight *)
  | Wait_issue  (** not blocked per se (branch penalty, SMT arbitration) *)

type blocked_core = {
  bc_core : int;
  bc_pc : int;
  bc_instr : Isa.instr;
  bc_wait : wait;
}

type queue_occupancy = {
  qo_id : int;
  qo_spec : Isa.queue_spec;
  qo_occupancy : int;
  qo_capacity : int;
}

type stuck_reason =
  | Deadlock of { window : int }
      (** no core issued for [window] consecutive cycles *)
  | Max_cycles of { limit : int }  (** the configured cycle budget ran out *)
  | Fault of string
      (** a malformed execution: out-of-bounds access, type misuse of a
          register, running off the end of a core's code *)

(** Structured diagnosis raised with {!Stuck}: the reason, the cycle the
    simulator gave up at, every non-halted core with the instruction it
    is blocked on, and every queue's occupancy — enough to render the
    dynamic wait-for cycle of a deadlock. *)
type stuck = {
  st_reason : stuck_reason;
  st_cycle : int;
  st_blocked : blocked_core list;
  st_queues : queue_occupancy list;
}

exception Stuck of stuck

module Telemetry = Finepar_telemetry
module Engine = Engine

type queue_state = {
  spec : Isa.queue_spec;
  items : (Types.value * int) Queue.t;  (** value, visible-at cycle *)
  mutable transfers : int;
  mutable max_occupancy : int;
  occupancy : Telemetry.Histogram.t;
      (** occupancy after each enqueue; bucket total = [transfers] *)
}

type core_stats = {
  mutable instrs : int;
  mutable stall_operand : int;
  mutable stall_queue_full : int;
  mutable stall_queue_empty : int;
  mutable branch_wait : int;  (** cycles lost to taken-branch penalties *)
  mutable smt_wait : int;
      (** cycles an eligible thread lost the shared issue slot (SMT) *)
  mutable idle_after_halt : int;
  mutable finished_at : int;
  mutable dual_issued : int;
      (** instructions issued in slots >= 2 of an issue bundle (always 0
          at issue width 1) *)
}

(** Total cycles this core spent blocked on an issue attempt. *)
let stall_total (s : core_stats) =
  s.stall_operand + s.stall_queue_full + s.stall_queue_empty

(** Every cycle of a core is exactly one of: issue, stall, branch-penalty
    wait, SMT arbitration loss, or post-halt idle — so this equals the
    run's total cycle count for every core (the invariant the telemetry
    tests check).  Extra-slot issues of a bundle share their cycle with
    the first issue, so they are subtracted back out via
    [dual_issued]. *)
let accounted_cycles (s : core_stats) =
  s.instrs - s.dual_issued + stall_total s + s.branch_wait + s.smt_wait
  + s.idle_after_halt

type event =
  | Ev_issue of { core : int; cycle : int; pc : int; instr : Isa.instr }
  | Ev_stall of { core : int; cycle : int; pc : int; reason : Telemetry.Stall.t }

type t = {
  config : Config.t;
  program : Program.t;
  memory : Types.value array array;  (** array id -> contents *)
  queues : queue_state array;
  core_map : int array;
      (** logical core (hardware thread) -> physical core.  With the
          identity map every thread has its own core; mapping several
          threads to one core models SMT: they share that core's single
          issue slot and its L1 (Section II discusses this option). *)
  l1 : Cache.t array;  (** per physical core *)
  l2 : Cache.t;
  regs : Types.value array array;
  reg_ready : int array array;
  pc : int array;
  min_issue : int array;
  halted : bool array;
  stats : core_stats array;
  rr : int array;  (** per physical core: SMT round-robin cursor *)
  threads_of : int list array;  (** physical core -> logical cores *)
  loads : int array;  (** per array id *)
  l1_misses : int array;
  mutable cycles : int;
  trace : event Telemetry.Ring.t;
      (** bounded; only filled when tracing, oldest events overwritten *)
  tracing : bool;
  stall_hist : Telemetry.Histogram.t array;
      (** per logical core: durations of contiguous stall episodes *)
  stall_run_class : int array;  (** current episode's stall class, -1 none *)
  stall_run_len : int array;
  fiber_issue : int array;
      (** per fiber id + 1 (slot 0 = runtime glue): issue cycles *)
  fiber_stall : int array;  (** same indexing: stall cycles *)
}

let default_trace_capacity = 65_536

let create ?(tracing = false) ?(trace_capacity = default_trace_capacity)
    ?core_map ~(config : Config.t)
    ~(initial : (string * Types.value array) list) (program : Program.t) =
  let n = Array.length program.Program.cores in
  let core_map =
    match core_map with
    | Some m ->
      if Array.length m <> n then
        invalid_arg "Sim.create: core_map length mismatch";
      Array.copy m
    | None -> Array.init n Fun.id
  in
  let n_phys = 1 + Array.fold_left max 0 core_map in
  let threads_of = Array.make n_phys [] in
  for t = n - 1 downto 0 do
    threads_of.(core_map.(t)) <- t :: threads_of.(core_map.(t))
  done;
  let memory =
    Array.map
      (fun (l : Program.array_layout) ->
        match List.assoc_opt l.Program.arr_name initial with
        | Some contents ->
          if Array.length contents <> l.Program.arr_len then
            invalid_arg
              (Printf.sprintf "Sim.create: %s has %d elements, expected %d"
                 l.Program.arr_name (Array.length contents) l.Program.arr_len);
          Array.copy contents
        | None -> Array.make l.Program.arr_len (Types.zero_of_ty l.Program.arr_ty))
      program.Program.arrays
  in
  (* Every access passes [check_idx], so no address reaches [span]. *)
  let span =
    Array.fold_left
      (fun acc (l : Program.array_layout) ->
        max acc (l.Program.arr_base + (8 * l.Program.arr_len)))
      0 program.Program.arrays
  in
  {
    config;
    program;
    memory;
    queues =
      Array.map
        (fun spec ->
          {
            spec;
            items = Queue.create ();
            transfers = 0;
            max_occupancy = 0;
            occupancy =
              Telemetry.Histogram.create
                ~bounds:
                  (Telemetry.Histogram.linear_bounds
                     (max 1 config.Config.queue_len));
          })
        program.Program.queues;
    core_map;
    l1 =
      Array.init n_phys (fun _ ->
          Cache.create ~bytes:config.Config.l1_bytes ~line:config.Config.l1_line
            ~span);
    l2 =
      Cache.create ~bytes:config.Config.l2_bytes ~line:config.Config.l1_line
        ~span;
    regs =
      Array.map
        (fun (c : Program.core_program) ->
          Array.make c.Program.n_regs (Types.VInt 0))
        program.Program.cores;
    reg_ready =
      Array.map
        (fun (c : Program.core_program) -> Array.make c.Program.n_regs 0)
        program.Program.cores;
    pc = Array.make n 0;
    min_issue = Array.make n 0;
    halted = Array.make n false;
    stats =
      Array.init n (fun _ ->
          {
            instrs = 0;
            stall_operand = 0;
            stall_queue_full = 0;
            stall_queue_empty = 0;
            branch_wait = 0;
            smt_wait = 0;
            idle_after_halt = 0;
            finished_at = 0;
            dual_issued = 0;
          });
    rr = Array.make n_phys 0;
    threads_of;
    loads = Array.make (Array.length program.Program.arrays) 0;
    l1_misses = Array.make (Array.length program.Program.arrays) 0;
    cycles = 0;
    trace =
      Telemetry.Ring.create ~capacity:(if tracing then trace_capacity else 0);
    tracing;
    stall_hist =
      Array.init n (fun _ ->
          Telemetry.Histogram.create
            ~bounds:(Telemetry.Histogram.exponential_bounds 16));
    stall_run_class = Array.make n (-1);
    stall_run_len = Array.make n 0;
    fiber_issue = Array.make (Program.max_fiber program + 2) 0;
    fiber_stall = Array.make (Program.max_fiber program + 2) 0;
  }

let addr_of t arr idx = t.program.Program.arrays.(arr).Program.arr_base + (idx * 8)

let load_latency t core arr idx =
  let addr = addr_of t arr idx in
  t.loads.(arr) <- t.loads.(arr) + 1;
  if Cache.access t.l1.(t.core_map.(core)) addr then t.config.Config.l1_hit
  else begin
    t.l1_misses.(arr) <- t.l1_misses.(arr) + 1;
    if Cache.access t.l2 addr then t.config.Config.l2_hit
    else t.config.Config.mem_latency
  end

let store_effects t core arr idx =
  let addr = addr_of t arr idx in
  let phys = t.core_map.(core) in
  ignore (Cache.access t.l1.(phys) addr);
  ignore (Cache.access t.l2 addr);
  (* Invalidate other private L1 copies so a later consumer pays a miss. *)
  Array.iteri (fun k l1 -> if k <> phys then Cache.invalidate l1 addr) t.l1

(** Occupancy of every queue right now. *)
let occupancies t =
  Array.to_list
    (Array.mapi
       (fun i (q : queue_state) ->
         {
           qo_id = i;
           qo_spec = q.spec;
           qo_occupancy = Queue.length q.items;
           qo_capacity = t.config.Config.queue_len;
         })
       t.queues)

(* Classify what [core] is waiting on at cycle [cy], mirroring the issue
   conditions in [step_core] without side effects. *)
let wait_of t core cy =
  let prog = t.program.Program.cores.(core) in
  let pc = t.pc.(core) in
  if pc >= Array.length prog.Program.code then Wait_issue
  else
    let instr = prog.Program.code.(pc) in
    let ready = t.reg_ready.(core) in
    if not (List.for_all (fun r -> ready.(r) <= cy) (Isa.srcs instr)) then
      Wait_operand
    else
      match instr with
      | Isa.Enq (q, _)
        when Queue.length t.queues.(q).items >= t.config.Config.queue_len ->
        Wait_queue_full q
      | Isa.Deq (_, q) -> (
        match Queue.peek_opt t.queues.(q).items with
        | Some (_, visible_at) when visible_at <= cy -> Wait_issue
        | Some _ | None -> Wait_queue_empty q)
      | _ -> Wait_issue

(** Every non-halted core with the instruction it is blocked on. *)
let blocked_of t cy =
  let out = ref [] in
  Array.iteri
    (fun core halted ->
      if not halted then begin
        let prog = t.program.Program.cores.(core) in
        let pc = t.pc.(core) in
        if pc < Array.length prog.Program.code then
          out :=
            {
              bc_core = core;
              bc_pc = pc;
              bc_instr = prog.Program.code.(pc);
              bc_wait = wait_of t core cy;
            }
            :: !out
      end)
    t.halted;
  List.rev !out

(* Snapshot the machine state into a structured {!stuck} payload; uses
   [t.cycles], which [run] keeps current while executing. *)
let snapshot t reason =
  {
    st_reason = reason;
    st_cycle = t.cycles;
    st_blocked = blocked_of t t.cycles;
    st_queues = occupancies t;
  }

let fault t fmt =
  Format.kasprintf (fun m -> raise (Stuck (snapshot t (Fault m)))) fmt

let check_idx t arr idx =
  let len = t.program.Program.arrays.(arr).Program.arr_len in
  if idx < 0 || idx >= len then
    fault t "array %s index %d out of bounds [0, %d)"
      t.program.Program.arrays.(arr).Program.arr_name idx len

let int_of_reg t core r =
  match t.regs.(core).(r) with
  | Types.VInt i -> i
  | Types.VFloat _ -> fault t "core %d: r%d used as integer holds f64" core r

(* Fiber the instruction at [pc] on [core] was generated from, shifted by
   one so slot 0 holds runtime glue ([Program.no_fiber]). *)
let fiber_slot t core pc =
  t.program.Program.cores.(core).Program.fiber_of.(pc) + 1

(* Close the current stall episode, recording its duration. *)
let flush_stall_run t core =
  if t.stall_run_class.(core) >= 0 then begin
    Telemetry.Histogram.observe t.stall_hist.(core) t.stall_run_len.(core);
    t.stall_run_class.(core) <- -1;
    t.stall_run_len.(core) <- 0
  end

(* The bookkeeping every issue shares, in the stepper's order: count the
   instruction, close any stall episode, charge the cycle to its fiber
   ([slot], as from [fiber_slot]), and trace it.  Inlined: it runs on
   every issued instruction. *)
let[@inline] note_issue t stats core ~slot cy pc instr =
  stats.instrs <- stats.instrs + 1;
  if t.stall_run_class.(core) >= 0 then flush_stall_run t core;
  t.fiber_issue.(slot) <- t.fiber_issue.(slot) + 1;
  if t.tracing then
    Telemetry.Ring.push t.trace (Ev_issue { core; cycle = cy; pc; instr })

(* [note_issue] for an instruction that falls through: the next one is
   at [pc + 1] and may issue next cycle.  Returns [true], the result of
   a step that issued. *)
let[@inline] issue_next t stats core ~slot cy pc instr =
  t.pc.(core) <- pc + 1;
  t.min_issue.(core) <- cy + 1;
  note_issue t stats core ~slot cy pc instr;
  true

(* [count] cycles from [from] blocked on [reason] (class index [cls]):
   bump the per-class counter, extend or open a stall episode, charge the
   cycles to the blocked instruction's fiber ([slot]), and trace the
   first cycle.  A traced run never fast-forwards, so every traced span
   is one cycle long.  Returns [false], the result of a step that
   stalled. *)
let stall_span t stats core pc reason ~cls ~slot from count =
  (match reason with
  | Telemetry.Stall.Operand -> stats.stall_operand <- stats.stall_operand + count
  | Telemetry.Stall.Queue_full _ ->
    stats.stall_queue_full <- stats.stall_queue_full + count
  | Telemetry.Stall.Queue_empty _ ->
    stats.stall_queue_empty <- stats.stall_queue_empty + count);
  if t.stall_run_class.(core) = cls then
    t.stall_run_len.(core) <- t.stall_run_len.(core) + count
  else begin
    flush_stall_run t core;
    t.stall_run_class.(core) <- cls;
    t.stall_run_len.(core) <- count
  end;
  t.fiber_stall.(slot) <- t.fiber_stall.(slot) + count;
  if t.tracing then
    Telemetry.Ring.push t.trace (Ev_stall { core; cycle = from; pc; reason });
  false

(* The stepper's stall: one cycle at [cy]; returns [false]. *)
let note_stall t core cy pc reason =
  stall_span t t.stats.(core) core pc reason
    ~cls:(Telemetry.Stall.class_index reason) ~slot:(fiber_slot t core pc) cy 1

(** Attempt to issue the next instruction of [core] at cycle [cy].
    Returns [true] if an instruction issued. *)
let step_core t core cy =
  let cfg = t.config in
  let stats = t.stats.(core) in
  let prog = t.program.Program.cores.(core) in
  let pc = t.pc.(core) in
  if pc >= Array.length prog.Program.code then
    fault t "core %d ran off the end of its code" core;
  let instr = prog.Program.code.(pc) in
  let regs = t.regs.(core) and ready = t.reg_ready.(core) in
  let operands_ready =
    List.for_all (fun r -> ready.(r) <= cy) (Isa.srcs instr)
  in
  if not operands_ready then note_stall t core cy pc Telemetry.Stall.Operand
  else begin
    let slot = fiber_slot t core pc in
    let finish_simple latency value_opt =
      (match (Isa.dst instr, value_opt) with
      | Some d, Some v ->
        regs.(d) <- v;
        ready.(d) <- cy + latency
      | Some _, None | None, Some _ -> assert false
      | None, None -> ());
      issue_next t stats core ~slot cy pc instr
    in
    let branch_to taken label =
      t.pc.(core) <-
        (if taken then prog.Program.label_pos.(label) else pc + 1);
      t.min_issue.(core) <-
        (cy + 1 + if taken then cfg.Config.branch_taken_penalty else 0);
      note_issue t stats core ~slot cy pc instr;
      true
    in
    match instr with
    | Isa.Li (_, v) -> finish_simple 1 (Some v)
    | Isa.Mov (_, s) -> finish_simple 1 (Some regs.(s))
    | Isa.Un (op, _, s) ->
      let v = regs.(s) in
      finish_simple
        (Op_cost.unop_latency op (Types.ty_of_value v))
        (Some (Types.apply_unop op v))
    | Isa.Bin (op, _, a, b) ->
      let va = regs.(a) and vb = regs.(b) in
      finish_simple
        (Op_cost.binop_latency op (Types.ty_of_value va))
        (Some (Types.apply_binop op va vb))
    | Isa.Sel (_, c, tr, fr) ->
      let v = if Types.value_is_true regs.(c) then regs.(tr) else regs.(fr) in
      finish_simple Op_cost.select_latency (Some v)
    | Isa.Load (_, arr, ir) ->
      let idx = int_of_reg t core ir in
      check_idx t arr idx;
      let latency = load_latency t core arr idx in
      finish_simple latency (Some t.memory.(arr).(idx))
    | Isa.Store (arr, ir, sr) ->
      let idx = int_of_reg t core ir in
      check_idx t arr idx;
      t.memory.(arr).(idx) <- regs.(sr);
      store_effects t core arr idx;
      finish_simple 1 None
    | Isa.Enq (q, sr) ->
      let qs = t.queues.(q) in
      if Queue.length qs.items >= cfg.Config.queue_len then
        note_stall t core cy pc (Telemetry.Stall.Queue_full q)
      else begin
        Queue.add (regs.(sr), cy + cfg.Config.transfer_latency) qs.items;
        qs.transfers <- qs.transfers + 1;
        qs.max_occupancy <- max qs.max_occupancy (Queue.length qs.items);
        Telemetry.Histogram.observe qs.occupancy (Queue.length qs.items);
        finish_simple 1 None
      end
    | Isa.Deq (_, q) ->
      let qs = t.queues.(q) in
      (match Queue.peek_opt qs.items with
      | Some (v, visible_at) when visible_at <= cy ->
        ignore (Queue.pop qs.items);
        finish_simple cfg.Config.deq_latency (Some v)
      | Some _ | None -> note_stall t core cy pc (Telemetry.Stall.Queue_empty q))
    | Isa.Bz (r, l) -> branch_to (not (Types.value_is_true regs.(r))) l
    | Isa.Bnz (r, l) -> branch_to (Types.value_is_true regs.(r)) l
    | Isa.Jmp l -> branch_to true l
    | Isa.Halt ->
      t.halted.(core) <- true;
      stats.finished_at <- cy;
      note_issue t stats core ~slot cy pc instr;
      true
  end

(* Whether [core]'s next instruction would issue at [cy], with no side
   effects — the gate for the extra slots of an issue bundle, where a
   refusal must not record a stall (the cycle is already accounted to
   the bundle's first issue).  Mirrors [step_core]'s issue conditions
   exactly; a pc off the end of the code is not issuable, so the
   off-the-end fault fires on the next cycle's slot-1 attempt, exactly
   as at width 1. *)
let issuable t core cy =
  let prog = t.program.Program.cores.(core) in
  let pc = t.pc.(core) in
  pc < Array.length prog.Program.code
  &&
  let instr = prog.Program.code.(pc) in
  let ready = t.reg_ready.(core) in
  List.for_all (fun r -> ready.(r) <= cy) (Isa.srcs instr)
  &&
  match instr with
  | Isa.Enq (q, _) ->
    Queue.length t.queues.(q).items < t.config.Config.queue_len
  | Isa.Deq (_, q) -> (
    match Queue.peek_opt t.queues.(q).items with
    | Some (_, visible_at) -> visible_at <= cy
    | None -> false)
  | _ -> true

(* Fill the remaining slots of [core]'s issue bundle at [cy], after the
   slot-1 issue from [prev_pc] succeeded.  Continuation requires a pure
   fall-through — pc advanced by exactly one, [min_issue] is the plain
   [cy + 1] (no taken-branch penalty pending), not halted — plus
   [issuable]; each extra issue runs the full [step_core] semantics and
   is counted in [dual_issued] so the accounting invariant still sums
   to one per (core, cycle). *)
let issue_rest t core cy ~prev_pc =
  let width = t.config.Config.issue_width in
  let stats = t.stats.(core) in
  let prev = ref prev_pc in
  let slot = ref 1 in
  let continue_ = ref true in
  while !continue_ && !slot < width do
    if
      (not t.halted.(core))
      && t.pc.(core) = !prev + 1
      && t.min_issue.(core) = cy + 1
      && issuable t core cy
    then begin
      let pc0 = t.pc.(core) in
      if step_core t core cy then begin
        stats.dual_issued <- stats.dual_issued + 1;
        prev := pc0;
        incr slot
      end
      else continue_ := false
    end
    else continue_ := false
  done

let all_halted t = Array.for_all Fun.id t.halted

let pp_wait ppf = function
  | Wait_queue_full q -> Fmt.pf ppf "queue %d full" q
  | Wait_queue_empty q -> Fmt.pf ppf "queue %d empty" q
  | Wait_operand -> Fmt.string ppf "operand in flight"
  | Wait_issue -> Fmt.string ppf "issue pending"

let qclass_name = function Isa.Qint -> "int" | Isa.Qfloat -> "float"

let pp_blocked_core ppf b =
  Fmt.pf ppf "core %d blocked at pc %d: %a [%a]" b.bc_core b.bc_pc
    Isa.pp_instr b.bc_instr pp_wait b.bc_wait

let pp_queue_occupancy ppf q =
  Fmt.pf ppf "q%d %d->%d %s %d/%d" q.qo_id q.qo_spec.Isa.src q.qo_spec.Isa.dst
    (qclass_name q.qo_spec.Isa.cls)
    q.qo_occupancy q.qo_capacity

(** The dynamic wait-for cycle among blocked cores, if one exists: a
    core blocked on an empty queue waits for the queue's source core, a
    core blocked on a full queue waits for its destination core.  The
    result lists each cycle participant with its wait. *)
let wait_for_cycle st =
  let spec_of q =
    List.find_opt (fun o -> o.qo_id = q) st.st_queues
    |> Option.map (fun o -> o.qo_spec)
  in
  let succ b =
    match b.bc_wait with
    | Wait_queue_empty q -> Option.map (fun s -> s.Isa.src) (spec_of q)
    | Wait_queue_full q -> Option.map (fun s -> s.Isa.dst) (spec_of q)
    | Wait_operand | Wait_issue -> None
  in
  let blocked core =
    List.find_opt (fun b -> b.bc_core = core) st.st_blocked
  in
  let rec walk path b =
    if List.exists (fun p -> p.bc_core = b.bc_core) path then
      (* Drop the lead-in: keep the cycle proper. *)
      let rec cut = function
        | p :: rest -> if p.bc_core = b.bc_core then p :: rest else cut rest
        | [] -> []
      in
      Some (cut (List.rev path))
    else
      match succ b with
      | None -> None
      | Some next -> (
        match blocked next with
        | None -> None
        | Some nb -> walk (b :: path) nb)
  in
  List.find_map (fun b -> walk [] b) st.st_blocked

let blockage_text ~blocked ~queues =
  let b = Buffer.create 128 in
  List.iter
    (fun bc -> Buffer.add_string b (Fmt.str "%a; " pp_blocked_core bc))
    blocked;
  if queues <> [] then
    Buffer.add_string b
      (Fmt.str "queues: %a"
         (Fmt.list ~sep:(Fmt.any ", ") pp_queue_occupancy)
         queues);
  Buffer.contents b

(** Human-readable rendering of a {!stuck} payload: the reason, every
    blocked core with its wait, per-queue occupancies, and — for
    deadlocks — the wait-for cycle when one exists. *)
let stuck_message st =
  let reason =
    match st.st_reason with
    | Deadlock { window } ->
      Printf.sprintf "deadlock (no progress for %d cycles)" window
    | Max_cycles { limit } -> Printf.sprintf "exceeded max_cycles=%d" limit
    | Fault m -> m
  in
  let body = blockage_text ~blocked:st.st_blocked ~queues:st.st_queues in
  let cycle_part =
    match st.st_reason with
    | Deadlock _ -> (
      match wait_for_cycle st with
      | Some (first :: _ as cyc) ->
        Fmt.str "; wait-for cycle: %a -> core %d"
          (Fmt.list ~sep:(Fmt.any " -> ") (fun ppf b ->
               Fmt.pf ppf "core %d (%a)" b.bc_core pp_wait b.bc_wait))
          cyc first.bc_core
      | Some [] | None -> "")
    | Max_cycles _ | Fault _ -> ""
  in
  Printf.sprintf "%s at cycle %d: %s%s" reason st.st_cycle body cycle_part

let () =
  Printexc.register_printer (function
    | Stuck st -> Some ("Finepar_machine.Sim.Stuck: " ^ stuck_message st)
    | _ -> None)

(* No core issued for [queue length * transfer latency + slack]
   consecutive cycles => deadlock.  Both engines use the same window, and
   the compiled engine's fast-forward jumps never cross the resulting
   deadline, so Stuck payloads are identical. *)
let deadlock_window t =
  (t.config.Config.queue_len * max 1 t.config.Config.transfer_latency)
  + t.config.Config.mem_latency + 1000

(** One simulated cycle of the reference stepper: SMT round-robin
    arbitration with issue attempts, then classification of the cores
    that never got an attempt.  [step_core] accounts every attempted core
    (issue or stall counter); the second pass classifies the rest, so
    every (core, cycle) lands in exactly one counter.  At issue width
    W >= 2 the winning thread fills its bundle's remaining slots via
    [issue_rest] before the sweep moves on.  [attempted] is
    caller-owned scratch of length [cores], reused across cycles.
    Returns [true] iff any instruction issued. *)
let step_cycle t attempted cy =
  let n = Array.length t.program.Program.cores in
  let width = t.config.Config.issue_width in
  let progressed = ref false in
  Array.fill attempted 0 n false;
  (* Each physical core grants its issue slots to one hardware thread
     per cycle; threads arbitrate round-robin (SMT sharing when several
     logical cores map to one physical core). *)
  Array.iteri
    (fun phys threads ->
      let k = List.length threads in
      if k > 0 then begin
        let arr = Array.of_list threads in
        let issued = ref false in
        for j = 0 to k - 1 do
          let core = arr.((t.rr.(phys) + j) mod k) in
          if
            (not !issued)
            && (not t.halted.(core))
            && t.min_issue.(core) <= cy
          then begin
            attempted.(core) <- true;
            let pc0 = t.pc.(core) in
            if step_core t core cy then begin
              issued := true;
              t.rr.(phys) <- (t.rr.(phys) + j + 1) mod k;
              progressed := true;
              if width > 1 then issue_rest t core cy ~prev_pc:pc0
            end
          end
        done
      end)
    t.threads_of;
  for core = 0 to n - 1 do
    if not attempted.(core) then begin
      let stats = t.stats.(core) in
      if t.halted.(core) then
        stats.idle_after_halt <- stats.idle_after_halt + 1
      else if t.min_issue.(core) > cy then
        stats.branch_wait <- stats.branch_wait + 1
      else stats.smt_wait <- stats.smt_wait + 1
    end
  done;
  !progressed

(** The reference engine: every core, every cycle. *)
let run_cycle t =
  let cy = ref 0 in
  let last_progress = ref 0 in
  let deadlock_window = deadlock_window t in
  let attempted = Array.make (Array.length t.program.Program.cores) false in
  while not (all_halted t) do
    (* Keep [t.cycles] current so fault/deadlock snapshots carry the
       cycle they happened at; it is overwritten with the final count
       when the run completes. *)
    t.cycles <- !cy;
    if !cy >= t.config.Config.max_cycles then
      raise
        (Stuck
           (snapshot t (Max_cycles { limit = t.config.Config.max_cycles })));
    if step_cycle t attempted !cy then last_progress := !cy;
    if !cy - !last_progress > deadlock_window then
      raise (Stuck (snapshot t (Deadlock { window = deadlock_window })));
    incr cy
  done;
  for core = 0 to Array.length t.program.Program.cores - 1 do
    flush_stall_run t core
  done;
  t.cycles <- !cy;
  !cy

(* ------------------------------------------------------------------ *)
(* The compiled engine.

   [specialize] translates each core's program once into a flat array of
   step closures, one per pc: operand checks are unrolled over the exact
   source list, and destinations, latencies, branch targets, queue
   endpoints, fiber slots and stall reasons with their class indices are
   resolved to direct array slots and constants.  The hot path executes
   [steps.(pc) cy], one indirect call per issue attempt: no [Isa.srcs]
   list, no [List.for_all] closure, no event allocation when tracing is
   off.  Every closure ends in the stepper's own bookkeeping
   ([issue_next] / [note_issue], or [stall_span]), so every state
   mutation happens in [step_core]'s order and the engine inherits the
   cycle-exactness contract.

   Next to the closures, [specialize] records data for the quiescent
   path: per pc, the source registers and the queue [gate].  [ready_at]
   reads the two: the cycle an instruction's operands and gate are ready,
   ignoring [min_issue], or [max_int] when only another core's issue can
   unblock it (an enqueue into a full queue, a dequeue from an empty
   one).

   Cycles where an instruction issues are swept one by one (issue order,
   SMT arbitration and cache state must follow the stepper exactly).  A
   cycle where nothing issues proves the machine quiescent: every
   eligible hardware thread was attempted by the round-robin arbiter (the
   shared issue slot was never consumed), so no [smt_wait] accrues, the
   round-robin cursors do not move, and queue contents, scoreboards and
   program counters are all frozen.  Each blocked core then wakes at
   [max min_issue ready_at], the earliest cycle its issue conditions can
   change without another core acting.  The driver jumps to the earliest
   wake, clamped by the deadlock deadline and the cycle budget.  Below
   it, a blocked core's skipped window [\[from, until)] splits into at
   most three contiguous segments ([credit]): branch-penalty wait while
   [cycle < min_issue], operand stall until the operands are ready, and
   the queue gate's stall class for the rest.  Those are exactly the
   counters the stepper would have bumped one cycle at a time; halted
   cores accrue [idle_after_halt].  A traced run steps every cycle
   instead, so its events come out in the stepper's order.

   The closures capture the arrays of ONE [t]; a [specialized] value is
   only valid for the instance it was built from. *)

(* What an instruction waits on besides its operands.  A queue gate
   carries its queue and the reason a blocked attempt stalls with. *)
type gate =
  | Free
  | Enq_gate of queue_state * Telemetry.Stall.t  (** blocks while full *)
  | Deq_gate of queue_state * Telemetry.Stall.t
      (** blocks until the head is visible *)

type specialized = {
  sp_for : t;  (** the instance the closures capture *)
  sp_steps : (int -> bool) array array;
      (** per logical core, per pc: attempt to issue at cycle; same
          result and side effects as [step_core].  The driver does the
          pc bounds check (and the off-the-end fault) itself, so the
          hot path is a single indirect call per attempt. *)
  sp_srcs : int array array array;
      (** per logical core, per pc: the source registers.  One entry
          past the end of the code (no sources, gate [Free]) serves a
          core whose pc ran off the end: it wakes at its [min_issue],
          and a window credited to it is all branch wait (the next sweep
          then raises the stepper's fault). *)
  sp_gates : gate array array;  (** same indexing: the queue gate *)
  sp_threads : int array array;  (** physical core -> logical cores *)
  sp_identity : bool;
      (** identity core map: issue sweep order is core order and the
          round-robin cursors never move, so the driver can skip SMT
          arbitration entirely *)
  sp_live : int ref;
      (** non-halted core count, maintained by the Halt closures;
          re-initialized by [run_compiled] *)
}

let operand = Telemetry.Stall.Operand
let operand_cls = Telemetry.Stall.class_index operand

let specialize t =
  let n = Array.length t.program.Program.cores in
  let cfg = t.config in
  let live = ref 0 in
  let compile_core core =
    let prog = t.program.Program.cores.(core) in
    let code = prog.Program.code in
    let regs = t.regs.(core) and ready = t.reg_ready.(core) in
    let stats = t.stats.(core) in
    (* Every arm ends in the inlined [issue_next] / [note_issue]: a shared
       closure would cost an indirect call on every issued instruction.
       Stall paths call [stall_span] with the reason, its class index and
       the fiber slot bound here, once per pc. *)
    let compile_at pc instr =
      let slot = fiber_slot t core pc in
      match instr with
      | Isa.Li (d, v) ->
        fun cy ->
          regs.(d) <- v;
          ready.(d) <- cy + 1;
          issue_next t stats core ~slot cy pc instr
      | Isa.Mov (d, s) ->
        fun cy ->
          if ready.(s) <= cy then begin
            regs.(d) <- regs.(s);
            ready.(d) <- cy + 1;
            issue_next t stats core ~slot cy pc instr
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Un (op, d, s) ->
        let lat_i = Op_cost.unop_latency op Types.I64 in
        let lat_f = Op_cost.unop_latency op Types.F64 in
        fun cy ->
          if ready.(s) <= cy then begin
            let v = regs.(s) in
            regs.(d) <- Types.apply_unop op v;
            ready.(d) <-
              (cy + match v with Types.VInt _ -> lat_i | Types.VFloat _ -> lat_f);
            issue_next t stats core ~slot cy pc instr
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Bin (op, d, a, b) ->
        let lat_i = Op_cost.binop_latency op Types.I64 in
        let lat_f = Op_cost.binop_latency op Types.F64 in
        fun cy ->
          if ready.(a) <= cy && ready.(b) <= cy then begin
            let va = regs.(a) in
            regs.(d) <- Types.apply_binop op va regs.(b);
            ready.(d) <-
              (cy
              + match va with Types.VInt _ -> lat_i | Types.VFloat _ -> lat_f);
            issue_next t stats core ~slot cy pc instr
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Sel (d, c, tr, fr) ->
        fun cy ->
          if ready.(c) <= cy && ready.(tr) <= cy && ready.(fr) <= cy then begin
            regs.(d) <-
              (if Types.value_is_true regs.(c) then regs.(tr) else regs.(fr));
            ready.(d) <- cy + Op_cost.select_latency;
            issue_next t stats core ~slot cy pc instr
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Load (d, arr, ir) ->
        let mem = t.memory.(arr) in
        fun cy ->
          if ready.(ir) <= cy then begin
            let idx = int_of_reg t core ir in
            check_idx t arr idx;
            let latency = load_latency t core arr idx in
            regs.(d) <- mem.(idx);
            ready.(d) <- cy + latency;
            issue_next t stats core ~slot cy pc instr
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Store (arr, ir, sr) ->
        let mem = t.memory.(arr) in
        fun cy ->
          if ready.(ir) <= cy && ready.(sr) <= cy then begin
            let idx = int_of_reg t core ir in
            check_idx t arr idx;
            mem.(idx) <- regs.(sr);
            store_effects t core arr idx;
            issue_next t stats core ~slot cy pc instr
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Enq (q, sr) ->
        let qs = t.queues.(q) in
        let cap = cfg.Config.queue_len in
        let lat = cfg.Config.transfer_latency in
        let full = Telemetry.Stall.Queue_full q in
        let cls = Telemetry.Stall.class_index full in
        fun cy ->
          if ready.(sr) <= cy then
            if Queue.length qs.items >= cap then
              stall_span t stats core pc full ~cls ~slot cy 1
            else begin
              Queue.add (regs.(sr), cy + lat) qs.items;
              qs.transfers <- qs.transfers + 1;
              qs.max_occupancy <- max qs.max_occupancy (Queue.length qs.items);
              Telemetry.Histogram.observe qs.occupancy (Queue.length qs.items);
              issue_next t stats core ~slot cy pc instr
            end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Deq (d, q) ->
        let qs = t.queues.(q) in
        let lat = cfg.Config.deq_latency in
        let empty = Telemetry.Stall.Queue_empty q in
        let cls = Telemetry.Stall.class_index empty in
        fun cy ->
          if Queue.is_empty qs.items then
            stall_span t stats core pc empty ~cls ~slot cy 1
          else
            let v, visible_at = Queue.peek qs.items in
            if visible_at <= cy then begin
              ignore (Queue.pop qs.items);
              regs.(d) <- v;
              ready.(d) <- cy + lat;
              issue_next t stats core ~slot cy pc instr
            end
            else stall_span t stats core pc empty ~cls ~slot cy 1
      | Isa.Bz (r, l) | Isa.Bnz (r, l) ->
        let target = prog.Program.label_pos.(l) in
        let pen = cfg.Config.branch_taken_penalty in
        let on_true = match instr with Isa.Bnz _ -> true | _ -> false in
        fun cy ->
          if ready.(r) <= cy then begin
            let taken = Types.value_is_true regs.(r) = on_true in
            t.pc.(core) <- (if taken then target else pc + 1);
            t.min_issue.(core) <- (cy + 1 + if taken then pen else 0);
            note_issue t stats core ~slot cy pc instr;
            true
          end
          else stall_span t stats core pc operand ~cls:operand_cls ~slot cy 1
      | Isa.Jmp l ->
        let target = prog.Program.label_pos.(l) in
        let pen = cfg.Config.branch_taken_penalty in
        fun cy ->
          t.pc.(core) <- target;
          t.min_issue.(core) <- cy + 1 + pen;
          note_issue t stats core ~slot cy pc instr;
          true
      | Isa.Halt ->
        fun cy ->
          t.halted.(core) <- true;
          decr live;
          stats.finished_at <- cy;
          note_issue t stats core ~slot cy pc instr;
          true
    in
    let gate_of = function
      | Isa.Enq (q, _) -> Enq_gate (t.queues.(q), Telemetry.Stall.Queue_full q)
      | Isa.Deq (_, q) -> Deq_gate (t.queues.(q), Telemetry.Stall.Queue_empty q)
      | _ -> Free
    in
    ( Array.mapi compile_at code,
      Array.append (Array.map (fun i -> Array.of_list (Isa.srcs i)) code) [| [||] |],
      Array.append (Array.map gate_of code) [| Free |] )
  in
  let compiled = Array.init n compile_core in
  {
    sp_for = t;
    sp_steps = Array.map (fun (s, _, _) -> s) compiled;
    sp_srcs = Array.map (fun (_, s, _) -> s) compiled;
    sp_gates = Array.map (fun (_, _, g) -> g) compiled;
    sp_threads = Array.map Array.of_list t.threads_of;
    sp_identity =
      (let id = ref (Array.length t.core_map = n) in
       Array.iteri (fun i p -> if p <> i then id := false) t.core_map;
       !id);
    sp_live = live;
  }

(* The latest ready cycle among the sources of [core]'s instruction at
   [pc]; 0 when it has none. *)
let operands_at t spec core pc =
  let ready = t.reg_ready.(core) and srcs = spec.sp_srcs.(core).(pc) in
  let at = ref 0 in
  for i = 0 to Array.length srcs - 1 do
    let r = ready.(srcs.(i)) in
    if r > !at then at := r
  done;
  !at

(* The cycle from which [core]'s instruction at [pc] has its operands and
   its queue gate ready, ignoring [min_issue]; [max_int] when only
   another core's issue can unblock it.  No side effects: [ready_at <=
   cy] is the gate for a bundle's extra slots, where a refusal must not
   record a stall, and [max min_issue ready_at] is a quiescent core's
   wake. *)
let ready_at t spec core pc =
  let at = operands_at t spec core pc in
  match spec.sp_gates.(core).(pc) with
  | Free -> at
  | Enq_gate (qs, _) ->
    if Queue.length qs.items >= t.config.Config.queue_len then max_int else at
  | Deq_gate (qs, _) ->
    if Queue.is_empty qs.items then max_int
    else Int.max at (snd (Queue.peek qs.items))

(* Credit the quiescent window [\[from, until)], which ends no later than
   its wake, to the non-halted [core] at [pc]: branch wait below
   [min_issue], operand stall until the operands are ready, and the
   queue gate's stall for the rest. *)
let credit t spec core pc from until =
  let stats = t.stats.(core) in
  let clamp x = Int.min until (Int.max from x) in
  let m = clamp t.min_issue.(core) in
  let r = Int.max m (clamp (operands_at t spec core pc)) in
  stats.branch_wait <- stats.branch_wait + (m - from);
  if r > m then
    ignore
      (stall_span t stats core pc operand ~cls:operand_cls
         ~slot:(fiber_slot t core pc) m (r - m));
  if until > r then
    match spec.sp_gates.(core).(pc) with
    | Enq_gate (_, reason) | Deq_gate (_, reason) ->
      ignore
        (stall_span t stats core pc reason
           ~cls:(Telemetry.Stall.class_index reason)
           ~slot:(fiber_slot t core pc) r (until - r))
    | Free -> assert false (* only a queue gate leaves a third segment *)

(* [issue_rest] over the specialized steps: the same continuation rule,
   with [ready_at] standing in for [issuable]. *)
let issue_rest_compiled t spec core cy ~prev_pc =
  let width = t.config.Config.issue_width in
  let stats = t.stats.(core) in
  let steps = spec.sp_steps.(core) in
  let len = Array.length steps in
  let prev = ref prev_pc in
  let slot = ref 1 in
  let continue_ = ref true in
  while !continue_ && !slot < width do
    let pcn = t.pc.(core) in
    if
      (not t.halted.(core))
      && pcn = !prev + 1
      && t.min_issue.(core) = cy + 1
      && pcn < len
      && ready_at t spec core pcn <= cy
    then
      if steps.(pcn) cy then begin
        stats.dual_issued <- stats.dual_issued + 1;
        prev := pcn;
        incr slot
      end
      else continue_ := false
    else continue_ := false
  done

(* One cycle under the compiled engine: the same two phases as
   [step_cycle] (round-robin issue sweep, then classification of the
   cores that never got an attempt) over the pre-compiled steps.  The
   classification stays a separate pass even on the identity fast path
   so a fault raised mid-sweep leaves the very counters the reference
   stepper would.  A pc off the end of the code faults here with the
   stepper's message (the fast-forward path wakes such a core at its
   [min_issue], so it always comes back into this sweep). *)
let step_cycle_compiled t spec attempted cy =
  let n = Array.length spec.sp_steps in
  let width = t.config.Config.issue_width in
  let progressed = ref false in
  (* Both sweeps dispatch the step closures inline (no shared [attempt]
     helper): a local function would be allocated afresh on every swept
     cycle, and the SMT sweep runs hot enough that even that shows up.
     The wrap-around round-robin index replaces the modulo of
     [step_cycle] — same orbit, no integer division. *)
  if spec.sp_identity then
    for core = 0 to n - 1 do
      if (not t.halted.(core)) && t.min_issue.(core) <= cy then begin
        attempted.(core) <- true;
        let steps = spec.sp_steps.(core) in
        let pc = t.pc.(core) in
        if pc >= Array.length steps then
          fault t "core %d ran off the end of its code" core
        else if steps.(pc) cy then begin
          progressed := true;
          if width > 1 then issue_rest_compiled t spec core cy ~prev_pc:pc
        end
      end
    done
  else
    for phys = 0 to Array.length spec.sp_threads - 1 do
      let threads = spec.sp_threads.(phys) in
      let k = Array.length threads in
      if k > 0 then begin
        let idx = ref t.rr.(phys) in
        let j = ref 0 in
        let issued = ref false in
        while (not !issued) && !j < k do
          let core = threads.(!idx) in
          if (not t.halted.(core)) && t.min_issue.(core) <= cy then begin
            attempted.(core) <- true;
            let steps = spec.sp_steps.(core) in
            let pc = t.pc.(core) in
            if pc >= Array.length steps then
              fault t "core %d ran off the end of its code" core
            else if steps.(pc) cy then begin
              issued := true;
              t.rr.(phys) <- (if !idx + 1 = k then 0 else !idx + 1);
              progressed := true;
              if width > 1 then issue_rest_compiled t spec core cy ~prev_pc:pc
            end
          end;
          incr j;
          incr idx;
          if !idx = k then idx := 0
        done
      end
    done;
  for core = 0 to n - 1 do
    if attempted.(core) then attempted.(core) <- false
    else begin
      let stats = t.stats.(core) in
      if t.halted.(core) then stats.idle_after_halt <- stats.idle_after_halt + 1
      else if t.min_issue.(core) > cy then
        stats.branch_wait <- stats.branch_wait + 1
      else stats.smt_wait <- stats.smt_wait + 1
    end
  done;
  !progressed

(** The compiled engine's driver: cycles that issue are swept over the
    pre-compiled per-core steps, and an untraced run fast-forwards
    quiescent cycles to the earliest wake (clamped by the deadlock
    deadline and the cycle budget), crediting the skipped window to every
    core.  A traced run steps every cycle, so its events keep the
    stepper's order. *)
let run_compiled t spec =
  if spec.sp_for != t then
    invalid_arg "Sim.run: specialized value belongs to a different sim";
  let n = Array.length t.program.Program.cores in
  let max_cycles = t.config.Config.max_cycles in
  let cy = ref 0 in
  let last_progress = ref 0 in
  let deadlock_window = deadlock_window t in
  let attempted = Array.make n false in
  let live = spec.sp_live in
  live := 0;
  Array.iter (fun h -> if not h then incr live) t.halted;
  while !live > 0 do
    t.cycles <- !cy;
    if !cy >= max_cycles then
      raise (Stuck (snapshot t (Max_cycles { limit = max_cycles })));
    if step_cycle_compiled t spec attempted !cy then begin
      last_progress := !cy;
      incr cy
    end
    else begin
      if !cy - !last_progress > deadlock_window then
        raise (Stuck (snapshot t (Deadlock { window = deadlock_window })));
      if t.tracing then incr cy
      else begin
        let wake = ref max_int in
        for core = 0 to n - 1 do
          if not t.halted.(core) then begin
            let w = Int.max t.min_issue.(core) (ready_at t spec core t.pc.(core)) in
            if w < !wake then wake := w
          end
        done;
        (* The machine is quiescent: nothing can change before the
           earliest wake, the deadlock deadline, or the cycle budget —
           whichever comes first ([max_int] = no core can wake on its
           own).  Every wake is > [cy] (an issuable core would have issued
           or faulted in the sweep above), so the jump always moves
           forward. *)
        let deadline = !last_progress + deadlock_window + 1 in
        let target = Int.min (Int.min !wake deadline) max_cycles in
        assert (target > !cy);
        let from = !cy + 1 in
        if target > from then
          for core = 0 to n - 1 do
            if t.halted.(core) then
              t.stats.(core).idle_after_halt <-
                t.stats.(core).idle_after_halt + (target - from)
            else credit t spec core t.pc.(core) from target
          done;
        cy := target
      end
    end
  done;
  for core = 0 to n - 1 do
    flush_stall_run t core
  done;
  t.cycles <- !cy;
  !cy

(** Run the program to completion; returns the cycle count of the last
    core to halt.  Raises {!Stuck} on deadlock (no core can make progress
    for [queue length * transfer latency + slack] consecutive cycles) or
    when [max_cycles] is reached (inclusive bound: a run executes at most
    [max_cycles] cycles).  Both engines implement identical semantics
    (see {!Engine}); [Engine.Compiled] only runs faster.  [specialized]
    (only meaningful for {!Engine.Compiled}) lets the caller time
    {!specialize} separately; it must come from [specialize] on this
    same [t]. *)
let run ?(engine = Engine.default) ?specialized t =
  match engine with
  | Engine.Cycle -> run_cycle t
  | Engine.Compiled ->
    let spec =
      match specialized with Some s -> s | None -> specialize t
    in
    run_compiled t spec

(** Final contents of a named array. *)
let array_contents t name =
  t.memory.(Program.array_id t.program name)

(** Value of a register on a core after the run. *)
let reg_value t core r = t.regs.(core).(r)

(** Per-array (name, loads, L1 misses) counters — the profile feedback
    input (Section III-B). *)
let load_counters t =
  Array.to_list
    (Array.mapi
       (fun i (l : Program.array_layout) ->
         (l.Program.arr_name, t.loads.(i), t.l1_misses.(i)))
       t.program.Program.arrays)

let queue_stats t =
  Array.to_list
    (Array.map
       (fun q -> (q.spec, q.transfers, q.max_occupancy))
       t.queues)

(** Number of distinct (src, dst) core pairs whose queues carried at least
    one value — the Table III "Queues" column. *)
let queues_used t =
  let pairs = Hashtbl.create 16 in
  Array.iter
    (fun q ->
      if q.transfers > 0 then
        Hashtbl.replace pairs (q.spec.Isa.src, q.spec.Isa.dst) ())
    t.queues;
  Hashtbl.length pairs

(** All queues drained — after a complete run this certifies that every
    enqueued value was consumed (the paper's static sender/receiver
    pairing, observed dynamically). *)
let queues_empty t =
  Array.for_all (fun q -> Queue.is_empty q.items) t.queues

(** Traced events, oldest first.  Bounded: when the run outgrew the trace
    ring only the most recent [trace_capacity] events remain — check
    {!dropped_events}. *)
let events t = Telemetry.Ring.to_list t.trace

(** Events overwritten because the trace ring was full. *)
let dropped_events t = Telemetry.Ring.dropped t.trace

(** Per-fiber cycle attribution: (fiber id, issue cycles, stall cycles),
    fiber id [Program.no_fiber] (-1) for runtime glue.  Summed with the
    per-core branch/SMT/idle waits this accounts for every cycle of every
    core. *)
let fiber_counters t =
  Array.to_list
    (Array.mapi
       (fun slot issue -> (slot - 1, issue, t.fiber_stall.(slot)))
       t.fiber_issue)

(** Cycles no issue was attempted, per core beyond the issue/stall
    accounting: taken-branch penalties + SMT arbitration losses +
    post-halt idling. *)
let wait_cycles t =
  Array.fold_left
    (fun acc s -> acc + s.branch_wait + s.smt_wait + s.idle_after_halt)
    0 t.stats

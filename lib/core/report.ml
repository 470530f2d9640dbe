(** Post-run telemetry: per-core, per-queue and per-fiber attribution
    tables derived from one simulation, with JSON / CSV / Chrome
    [trace_event] exporters. *)

module T = Finepar_telemetry
module Sim = Finepar_machine.Sim
module Program = Finepar_machine.Program
module Isa = Finepar_machine.Isa

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
  stall_episodes : T.Histogram.t;  (** durations of contiguous stalls *)
}

type queue_row = {
  queue : int;
  src : int;
  dst : int;
  transfers : int;
  max_occupancy : int;
  occupancy : T.Histogram.t;  (** occupancy sampled after each enqueue *)
}

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
  fibers : fiber_row list;  (** issue + stall + wait = total_core_cycles *)
  dropped_events : int;
}

let of_sim ?compiled (sim : Sim.t) =
  let program = sim.Sim.program in
  let n_cores = Array.length sim.Sim.stats in
  let cycles = sim.Sim.cycles in
  let cores =
    List.init n_cores (fun i ->
        let s = sim.Sim.stats.(i) in
        {
          core = i;
          instrs = s.Sim.instrs;
          stall_operand = s.Sim.stall_operand;
          stall_queue_full = s.Sim.stall_queue_full;
          stall_queue_empty = s.Sim.stall_queue_empty;
          branch_wait = s.Sim.branch_wait;
          smt_wait = s.Sim.smt_wait;
          idle_after_halt = s.Sim.idle_after_halt;
          dual_issued = s.Sim.dual_issued;
          stall_episodes = sim.Sim.stall_hist.(i);
        })
  in
  let queues =
    List.init
      (Array.length sim.Sim.queues)
      (fun i ->
        let q = sim.Sim.queues.(i) in
        {
          queue = i;
          src = q.Sim.spec.Isa.src;
          dst = q.Sim.spec.Isa.dst;
          transfers = q.Sim.transfers;
          max_occupancy = q.Sim.max_occupancy;
          occupancy = q.Sim.occupancy;
        })
  in
  (* Fiber placement from the program's own provenance, so the report
     works on bare simulations too. *)
  let max_fiber = Program.max_fiber program in
  let partition_of = Array.make (max 0 (max_fiber + 1)) (-1) in
  Array.iteri
    (fun c (cp : Program.core_program) ->
      Array.iter
        (fun f -> if f >= 0 then partition_of.(f) <- c)
        cp.Program.fiber_of)
    program.Program.cores;
  let line_of f =
    match compiled with
    | None -> -1
    | Some (c : Compiler.compiled) -> (
      match
        List.find_opt
          (fun (s : Finepar_ir.Region.sstmt) -> s.Finepar_ir.Region.id = f)
          c.Compiler.region.Finepar_ir.Region.stmts
      with
      | Some s -> s.Finepar_ir.Region.line
      | None -> -1)
  in
  let fibers =
    List.map
      (fun (f, issue, stall) ->
        {
          fiber = f;
          partition = (if f >= 0 then partition_of.(f) else -1);
          line = (if f >= 0 then line_of f else -1);
          issue;
          stall;
        })
      (Sim.fiber_counters sim)
  in
  {
    kernel =
      (match compiled with
      | Some c -> c.Compiler.source.Finepar_ir.Kernel.name
      | None -> "");
    cycles;
    n_cores;
    total_core_cycles = cycles * n_cores;
    wait_cycles = Sim.wait_cycles sim;
    instrs =
      Array.fold_left (fun acc s -> acc + s.Sim.instrs) 0 sim.Sim.stats;
    cores;
    queues;
    fibers;
    dropped_events = Sim.dropped_events sim;
  }

(* ------------------------------------------------------------------ *)
(* JSON / CSV *)

let to_json t =
  let open T.Json in
  Obj
    [
      ("kernel", String t.kernel);
      ("cycles", Int t.cycles);
      ("n_cores", Int t.n_cores);
      ("total_core_cycles", Int t.total_core_cycles);
      ("wait_cycles", Int t.wait_cycles);
      ("instrs", Int t.instrs);
      ("dropped_events", Int t.dropped_events);
      ( "cores",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("core", Int r.core);
                   ("instrs", Int r.instrs);
                   ("stall_operand", Int r.stall_operand);
                   ("stall_queue_full", Int r.stall_queue_full);
                   ("stall_queue_empty", Int r.stall_queue_empty);
                   ("branch_wait", Int r.branch_wait);
                   ("smt_wait", Int r.smt_wait);
                   ("idle_after_halt", Int r.idle_after_halt);
                   ("dual_issued", Int r.dual_issued);
                   ("stall_episodes", T.Histogram.to_json r.stall_episodes);
                 ])
             t.cores) );
      ( "queues",
        List
          (List.map
             (fun q ->
               Obj
                 [
                   ("queue", Int q.queue);
                   ("src", Int q.src);
                   ("dst", Int q.dst);
                   ("transfers", Int q.transfers);
                   ("max_occupancy", Int q.max_occupancy);
                   ("occupancy", T.Histogram.to_json q.occupancy);
                 ])
             t.queues) );
      ( "fibers",
        List
          (List.map
             (fun f ->
               Obj
                 [
                   ("fiber", Int f.fiber);
                   ("partition", Int f.partition);
                   ("line", Int f.line);
                   ("issue", Int f.issue);
                   ("stall", Int f.stall);
                 ])
             t.fibers) );
    ]

(* One row per sample, histograms flattened to count/sum/min/max.  The
   labels column is [k=v] pairs joined by semicolons, so every row has
   the header's 8 fields. *)
let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,labels,kind,value,count,sum,min,max\n";
  let row name labels kind cols =
    Printf.bprintf buf "%s,%s,%s,%s\n" name
      (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels))
      kind cols
  in
  let counter ?(labels = []) name v =
    row name labels "counter" (Printf.sprintf "%d,,,," v)
  in
  let histogram labels name h =
    let opt = function Some v -> string_of_int v | None -> "" in
    row name labels "histogram"
      (Printf.sprintf ",%d,%d,%s,%s" (T.Histogram.count h) (T.Histogram.sum h)
         (opt (T.Histogram.min_value h))
         (opt (T.Histogram.max_value h)))
  in
  counter "sim_cycles_total" t.cycles;
  counter "sim_instructions_total" t.instrs;
  counter "sim_wait_cycles_total" t.wait_cycles;
  counter "trace_events_dropped_total" t.dropped_events;
  List.iter
    (fun r ->
      let core = [ ("core", string_of_int r.core) ] in
      counter ~labels:core "core_instructions_total" r.instrs;
      List.iter
        (fun (cls, v) ->
          counter ~labels:(core @ [ ("class", cls) ]) "core_stall_cycles_total" v)
        [
          ("operand", r.stall_operand);
          ("queue_full", r.stall_queue_full);
          ("queue_empty", r.stall_queue_empty);
        ];
      List.iter
        (fun (kind, v) ->
          counter ~labels:(core @ [ ("kind", kind) ]) "core_wait_cycles_total" v)
        [
          ("branch", r.branch_wait);
          ("smt", r.smt_wait);
          ("halted", r.idle_after_halt);
        ];
      counter ~labels:core "core_dual_issued_total" r.dual_issued;
      histogram core "core_stall_episode_cycles" r.stall_episodes)
    t.cores;
  List.iter
    (fun q ->
      let labels =
        [
          ("queue", string_of_int q.queue);
          ("src", string_of_int q.src);
          ("dst", string_of_int q.dst);
        ]
      in
      counter ~labels "queue_transfers_total" q.transfers;
      row "queue_max_occupancy" labels "gauge"
        (Printf.sprintf "%g,,,," (float_of_int q.max_occupancy));
      histogram labels "queue_occupancy" q.occupancy)
    t.queues;
  List.iter
    (fun f ->
      let fiber =
        ("fiber", if f.fiber >= 0 then string_of_int f.fiber else "glue")
      in
      counter ~labels:[ fiber; ("kind", "issue") ] "fiber_cycles_total" f.issue;
      counter ~labels:[ fiber; ("kind", "stall") ] "fiber_cycles_total" f.stall)
    t.fibers;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Human-readable report *)

let pp ppf t =
  let pct v =
    if t.total_core_cycles = 0 then 0.
    else 100. *. float_of_int v /. float_of_int t.total_core_cycles
  in
  Fmt.pf ppf "kernel %s: %d cycles on %d cores, %d instructions@." t.kernel
    t.cycles t.n_cores t.instrs;
  Fmt.pf ppf "@.%-5s %9s %9s %9s %9s %9s %9s %9s %9s@." "core" "instrs"
    "operand" "q-full" "q-empty" "branch" "smt" "halted" "dual";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-5d %9d %9d %9d %9d %9d %9d %9d %9d@." r.core r.instrs
        r.stall_operand r.stall_queue_full r.stall_queue_empty r.branch_wait
        r.smt_wait r.idle_after_halt r.dual_issued)
    t.cores;
  if t.queues <> [] then begin
    Fmt.pf ppf "@.%-5s %9s %9s %9s@." "queue" "src->dst" "transfers" "max-occ";
    List.iter
      (fun q ->
        Fmt.pf ppf "%-5d %4d->%-4d %9d %9d@." q.queue q.src q.dst q.transfers
          q.max_occupancy)
      t.queues
  end;
  Fmt.pf ppf "@.%-6s %9s %5s %9s %9s %7s@." "fiber" "partition" "line" "issue"
    "stall" "%cycles";
  List.iter
    (fun f ->
      Fmt.pf ppf "%-6s %9d %5d %9d %9d %6.1f%%@."
        (if f.fiber >= 0 then string_of_int f.fiber else "glue")
        f.partition f.line f.issue f.stall
        (pct (f.issue + f.stall)))
    t.fibers;
  Fmt.pf ppf "%-6s %9s %5s %9s %9s %6.1f%%@." "wait" "-" "-" "-" "-"
    (pct t.wait_cycles);
  let attributed =
    List.fold_left (fun acc f -> acc + f.issue + f.stall) 0 t.fibers
  in
  let dual = List.fold_left (fun acc r -> acc + r.dual_issued) 0 t.cores in
  Fmt.pf ppf "@.accounting: %d attributed + %d wait = %d = %d cycles x %d \
              cores + %d dual-issued@."
    attributed t.wait_cycles
    (attributed + t.wait_cycles)
    t.cycles t.n_cores dual;
  if t.dropped_events > 0 then
    Fmt.pf ppf "@.(trace ring dropped %d events)@." t.dropped_events

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export: one lane per core (pid 0), occupancy
   counters per queue (pid 1); 1 cycle = 1 us. *)

let chrome_trace (sim : Sim.t) =
  let open T.Chrome_trace in
  let program = sim.Sim.program in
  let n_cores = Array.length program.Program.cores in
  let events = Sim.events sim in
  let meta =
    [ Process_name { pid = 0; name = "cores" } ]
    @ List.concat
        (List.init n_cores (fun c ->
             [
               Thread_name { pid = 0; tid = c; name = "core " ^ string_of_int c };
               Thread_sort { pid = 0; tid = c; index = c };
             ]))
    @
    if Array.length program.Program.queues = 0 then []
    else [ Process_name { pid = 1; name = "queues" } ]
  in
  (* Core lanes: merge per-cycle events into spans while the attribution
     (fiber or stall reason) stays the same over contiguous cycles. *)
  let name_of = function
    | Sim.Ev_issue { core; pc; _ } ->
      let f = program.Program.cores.(core).Program.fiber_of.(pc) in
      if f = Program.no_fiber then "glue" else "fiber " ^ string_of_int f
    | Sim.Ev_stall { reason; _ } -> T.Stall.to_string reason
  in
  let cat_of = function
    | Sim.Ev_issue _ -> "issue"
    | Sim.Ev_stall _ -> "stall"
  in
  let spans = ref [] in
  let cur = Array.make n_cores None in
  let flush c =
    match cur.(c) with
    | None -> ()
    | Some (name, cat, start, last) ->
      spans :=
        Complete
          { name; cat; pid = 0; tid = c; ts = start; dur = last - start + 1;
            args = [] }
        :: !spans;
      cur.(c) <- None
  in
  List.iter
    (fun ev ->
      let core, cycle =
        match ev with
        | Sim.Ev_issue { core; cycle; _ } | Sim.Ev_stall { core; cycle; _ } ->
          (core, cycle)
      in
      let name = name_of ev and cat = cat_of ev in
      match cur.(core) with
      | Some (n, ct, start, last)
        when String.equal n name && String.equal ct cat && cycle = last + 1 ->
        cur.(core) <- Some (n, ct, start, cycle)
      | _ ->
        flush core;
        cur.(core) <- Some (name, cat, cycle, cycle))
    events;
  for c = 0 to n_cores - 1 do
    flush c
  done;
  (* Queue occupancy counters, replayed from enqueue/dequeue issues.
     Clamped at zero: with a truncated trace the replay can start
     mid-stream. *)
  let n_queues = Array.length program.Program.queues in
  let occ = Array.make n_queues 0 in
  let qname q =
    let s = program.Program.queues.(q) in
    Fmt.str "q%d %d->%d" q s.Isa.src s.Isa.dst
  in
  let counters = ref [] in
  let sample q cycle =
    counters :=
      Counter
        { name = qname q; pid = 1; ts = cycle;
          values = [ ("occupancy", occ.(q)) ] }
      :: !counters
  in
  List.iter
    (function
      | Sim.Ev_issue { cycle; instr = Isa.Enq (q, _); _ } ->
        occ.(q) <- occ.(q) + 1;
        sample q cycle
      | Sim.Ev_issue { cycle; instr = Isa.Deq (_, q); _ } ->
        occ.(q) <- max 0 (occ.(q) - 1);
        sample q cycle
      | Sim.Ev_issue _ | Sim.Ev_stall _ -> ())
    events;
  meta @ List.rev !spans @ List.rev !counters

(** The differential oracle set.

    Every fuzzed case is checked against six independent oracles:

    - {b verifier accepts}: the static queue-protocol verifier
      ({!Finepar_verify.Verify}) accepts the generated code against the
      comm plan;
    - {b bit-exact}: the simulated outputs equal the reference
      evaluator's, bit for bit ({!Finepar.Runner} raises [Mismatch]);
    - {b telemetry invariants}: per-core cycle accounting sums to the
      run's cycles, fiber attribution plus wait cycles sums to
      [cycles * threads], and queue occupancy respects capacity;
    - {b determinism}: a second run of the same compiled program on the
      same workload reproduces the cycle count and outputs;
    - {b cross-engine}: the other simulation engine (cycle stepper or
      compiled — {!Finepar_machine.Engine}) reproduces the cycle count,
      the architectural outputs, and the full telemetry report;
    - {b cross-core agreement}: the same kernel compiled for one core
      produces the same observable results.

    [check] never raises: compiler or simulator exceptions become
    failures of the corresponding oracle.  A stuck simulator is
    classified by its structured reason: "deadlock" (no core can make
    progress), "max-cycles" (budget exhausted), or "progress" (a
    faulting execution). *)

module Sim = Finepar_machine.Sim
module Program = Finepar_machine.Program
module Verify = Finepar_verify.Verify
open Finepar_ir

type stats = {
  cycles : int;
  n_partitions : int;
  queues_used : int;
  instrs : int;
  speculated_ifs : int;
}

type failure = {
  oracle : string;  (** which oracle rejected the case *)
  message : string;
}

type outcome = Pass of stats | Fail of failure

let fail oracle fmt = Format.kasprintf (fun message -> Fail { oracle; message }) fmt

type compile_fn = Finepar.Compiler.config -> Kernel.t -> Finepar.Compiler.compiled

(** Telemetry invariants on a finished simulation; [None] means all
    hold. *)
let telemetry_failure (sim : Sim.t) =
  let cycles = sim.Sim.cycles in
  let n_threads = Array.length sim.Sim.stats in
  let bad = ref None in
  let record fmt = Format.kasprintf (fun m -> if !bad = None then bad := Some m) fmt in
  Array.iteri
    (fun i s ->
      let acc = Sim.accounted_cycles s in
      if acc <> cycles then
        record "core %d: %d cycles accounted, run took %d" i acc cycles)
    sim.Sim.stats;
  let attributed =
    List.fold_left
      (fun acc (_, issue, stall) -> acc + issue + stall)
      0 (Sim.fiber_counters sim)
  in
  (* Each extra-slot issue attributes a fiber cycle beyond the 1-per-core
     cycle budget, so the dual-issue total joins the right-hand side. *)
  let dual =
    Array.fold_left (fun acc s -> acc + s.Sim.dual_issued) 0 sim.Sim.stats
  in
  let total = (cycles * n_threads) + dual in
  if attributed + Sim.wait_cycles sim <> total then
    record
      "fiber attribution %d + wait %d <> %d cycles x %d threads + %d dual-issued"
      attributed (Sim.wait_cycles sim) cycles n_threads dual;
  Array.iteri
    (fun i (q : Sim.queue_state) ->
      if q.Sim.max_occupancy < 0 || q.Sim.max_occupancy > sim.Sim.config.Finepar_machine.Config.queue_len
      then
        record "queue %d: max occupancy %d outside [0, %d]" i q.Sim.max_occupancy
          sim.Sim.config.Finepar_machine.Config.queue_len;
      if Finepar_telemetry.Histogram.bucket_total q.Sim.occupancy <> q.Sim.transfers
      then
        record "queue %d: occupancy histogram holds %d samples, %d transfers" i
          (Finepar_telemetry.Histogram.bucket_total q.Sim.occupancy)
          q.Sim.transfers)
    sim.Sim.queues;
  !bad

(* The full telemetry report rendered to JSON: covers every counter,
   stall-episode histogram and queue-occupancy histogram in one
   comparable string. *)
let report_json (r : Finepar.Runner.run) =
  Finepar_telemetry.Json.to_string
    (Finepar.Report.to_json r.Finepar.Runner.telemetry)

let check ?(compile : compile_fn = Finepar.Compiler.compile)
    ?(engine = Finepar_machine.Engine.default) (case : Gen.case) =
  let workload =
    Finepar_kernels.Workload.default ~seed:case.Gen.workload_seed case.Gen.kernel
  in
  match compile case.Gen.config case.Gen.kernel with
  | exception Kernel.Invalid m -> fail "well-formed" "kernel rejected: %s" m
  | exception Finepar_analysis.Deps.Unsupported m ->
    fail "well-formed" "dependence analysis rejected: %s" m
  | exception Verify.Rejected (k, vs) ->
    fail "verifier" "%s rejected: %a" k
      (Fmt.list ~sep:(Fmt.any "; ") Verify.pp_violation)
      vs
  | exception e -> fail "compiler-crash" "%s" (Printexc.to_string e)
  | c -> (
    let program =
      c.Finepar.Compiler.code.Finepar_codegen.Lower.program
    in
    (* Verifier-accepts: the static queue-protocol verifier must accept
       the generated code before it runs.  [Compiler.compile] already
       enforces this, so the explicit re-check here exists to catch
       injected miscompiles (a [compile_fn] that corrupts the program
       after the pipeline's own verify pass). *)
    let verdict =
      Verify.run ~plan:c.Finepar.Compiler.comm
        ~mode:case.Gen.config.Finepar.Compiler.comm_mode
        ~queue_len:
          case.Gen.config.Finepar.Compiler.machine
            .Finepar_machine.Config.queue_len
        program
    in
    if not (Verify.ok verdict) then
      fail "verifier" "%d violation(s): %a"
        (List.length verdict.Verify.violations)
        (Fmt.list ~sep:(Fmt.any "; ") Verify.pp_violation)
        verdict.Verify.violations
    else
    let n_threads = Array.length program.Program.cores in
    let core_map = Gen.materialize case.Gen.placement n_threads in
    match Finepar.Runner.run_with_sim ~check:true ~workload ~core_map ~engine c with
    | exception Finepar.Runner.Mismatch m -> fail "bit-exact" "%s" m
    | exception Sim.Stuck st -> (
      (* Classify how the simulator got stuck: a deadlock, exhausting
         the cycle budget, and a faulting execution are distinct bugs
         and shrink along different paths. *)
      match st.Sim.st_reason with
      | Sim.Deadlock _ -> fail "deadlock" "%s" (Sim.stuck_message st)
      | Sim.Max_cycles _ -> fail "max-cycles" "%s" (Sim.stuck_message st)
      | Sim.Fault _ -> fail "progress" "%s" (Sim.stuck_message st))
    | exception Eval.Runtime_error m -> fail "well-formed" "reference evaluator: %s" m
    | exception e -> fail "simulator-crash" "%s" (Printexc.to_string e)
    | run1, sim -> (
      match telemetry_failure sim with
      | Some m -> fail "telemetry" "%s" m
      | None -> (
        (* Determinism: same compiled program, same workload, fresh
           simulator state. *)
        match Finepar.Runner.run ~check:false ~workload ~core_map ~engine c with
        | exception e ->
          fail "determinism" "second run raised %s" (Printexc.to_string e)
        | run2 ->
          if run1.Finepar.Runner.cycles <> run2.Finepar.Runner.cycles then
            fail "determinism" "cycle counts differ across runs: %d vs %d"
              run1.Finepar.Runner.cycles run2.Finepar.Runner.cycles
          else if
            not (Eval.result_equal run1.Finepar.Runner.result run2.Finepar.Runner.result)
          then fail "determinism" "results differ across identical runs"
          else (
            (* Cross-engine: the other engine must be cycle-exact —
               same cycle count, same architectural outputs, same
               telemetry report (the report JSON covers every counter
               and histogram) — whichever engine the campaign
               selected. *)
            let cross_engine_failure other =
              match
                Finepar.Runner.run ~check:false ~workload ~core_map
                  ~engine:other c
              with
              | exception e ->
                Some
                  (fail "cross-engine" "%s engine raised %s"
                     (Finepar_machine.Engine.to_string other)
                     (Printexc.to_string e))
              | run_other ->
                if run1.Finepar.Runner.cycles <> run_other.Finepar.Runner.cycles
                then
                  Some
                    (fail "cross-engine" "cycle counts differ: %s %d vs %s %d"
                       (Finepar_machine.Engine.to_string engine)
                       run1.Finepar.Runner.cycles
                       (Finepar_machine.Engine.to_string other)
                       run_other.Finepar.Runner.cycles)
                else if
                  not
                    (Eval.result_equal run1.Finepar.Runner.result
                       run_other.Finepar.Runner.result)
                then
                  Some
                    (fail "cross-engine" "results differ across engines (%s vs %s)"
                       (Finepar_machine.Engine.to_string engine)
                       (Finepar_machine.Engine.to_string other))
                else if report_json run1 <> report_json run_other then
                  Some
                    (fail "cross-engine"
                       "telemetry reports differ across engines (%s vs %s)"
                       (Finepar_machine.Engine.to_string engine)
                       (Finepar_machine.Engine.to_string other))
                else None
            in
            let others =
              List.filter (fun e -> e <> engine) Finepar_machine.Engine.all
            in
            match List.find_map cross_engine_failure others with
            | Some failure -> failure
            | None ->
            (* Cross-core agreement: one-core compilation of the same
               kernel must observe the same live-outs and arrays. *)
            let config1 = { case.Gen.config with Finepar.Compiler.cores = 1 } in
            (match compile config1 case.Gen.kernel with
            | exception e ->
              fail "cross-core" "1-core compile raised %s" (Printexc.to_string e)
            | c1 -> (
              match Finepar.Runner.run ~check:true ~workload ~engine c1 with
              | exception e ->
                fail "cross-core" "1-core run raised %s" (Printexc.to_string e)
              | run_1core ->
                if
                  not
                    (Eval.result_equal run1.Finepar.Runner.result
                       run_1core.Finepar.Runner.result)
                then
                  fail "cross-core"
                    "%d-partition and 1-core results disagree"
                    c.Finepar.Compiler.stats.Finepar.Compiler.n_partitions
                else
                  Pass
                    {
                      cycles = run1.Finepar.Runner.cycles;
                      n_partitions =
                        c.Finepar.Compiler.stats.Finepar.Compiler.n_partitions;
                      queues_used = run1.Finepar.Runner.queues_used;
                      instrs = run1.Finepar.Runner.instrs;
                      speculated_ifs =
                        c.Finepar.Compiler.stats.Finepar.Compiler.speculated_ifs;
                    }))))))

let pp_failure ppf f = Fmt.pf ppf "[%s] %s" f.oracle f.message

(* Static queue-protocol verifier tests: hand-built violating programs
   (one per check), agreement between the static deadlock check and the
   simulator's structured Stuck diagnosis, acceptance of every compiled
   registry kernel and corpus reproducer, and the static-catch guarantee
   for the comm-corruption mutation rules. *)

open Finepar_ir
open Finepar_machine
module Verify = Finepar_verify.Verify
module Compiler = Finepar.Compiler
module Registry = Finepar_kernels.Registry

(* Program builders shared with the machine, telemetry and engine
   suites live in [Helpers]. *)
let two_cores = Helpers.two_cores

let has check (r : Verify.result) =
  List.exists (fun v -> v.Verify.v_check = check) r.Verify.violations

let check_names (r : Verify.result) =
  List.map (fun v -> Verify.check_name v.Verify.v_check) r.Verify.violations

let contains = Helpers.contains

(* ------------------------------------------------------------------ *)
(* Hand-built programs, one per property.                              *)

(* Crossed dependency: each core dequeues what the other has not yet
   sent.  Statically a two-op wait-for cycle; dynamically a deadlock. *)
let crossed_program =
  let queues =
    [|
      { Isa.src = 0; dst = 1; cls = Isa.Qint };
      { Isa.src = 1; dst = 0; cls = Isa.Qint };
    |]
  in
  two_cores ~queues
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

let test_crossed_static () =
  let r = Verify.run ~queue_len:20 crossed_program in
  Alcotest.(check bool)
    (Fmt.str "deadlock reported (got %a)"
       Fmt.(Dump.list string)
       (check_names r))
    true (has Verify.Deadlock r);
  let v =
    List.find (fun v -> v.Verify.v_check = Verify.Deadlock) r.Verify.violations
  in
  Alcotest.(check bool) "message names the wait-for cycle" true
    (contains ~sub:"wait-for cycle" v.Verify.v_message)

let test_crossed_dynamic () =
  let sim = Sim.create ~config:Config.default ~initial:[] crossed_program in
  match Sim.run sim with
  | _ -> Alcotest.fail "expected Sim.Stuck"
  | exception Sim.Stuck st ->
    Alcotest.(check bool) "reason is deadlock" true
      (match st.Sim.st_reason with Sim.Deadlock _ -> true | _ -> false);
    Alcotest.(check int) "both cores blocked" 2 (List.length st.Sim.st_blocked);
    List.iter
      (fun (bc : Sim.blocked_core) ->
        Alcotest.(check bool)
          (Fmt.str "core %d waits on an empty queue" bc.Sim.bc_core)
          true
          (match bc.Sim.bc_wait with
          | Sim.Wait_queue_empty _ -> true
          | _ -> false))
      st.Sim.st_blocked;
    List.iter
      (fun (qo : Sim.queue_occupancy) ->
        Alcotest.(check int)
          (Fmt.str "queue %d is empty" qo.Sim.qo_id)
          0 qo.Sim.qo_occupancy)
      st.Sim.st_queues;
    Alcotest.(check bool) "wait_for_cycle finds both cores" true
      (match Sim.wait_for_cycle st with
      | Some cycle ->
        List.sort compare (List.map (fun bc -> bc.Sim.bc_core) cycle)
        = [ 0; 1 ]
      | None -> false);
    Alcotest.(check bool) "message names the wait-for cycle" true
      (contains ~sub:"wait-for cycle" (Sim.stuck_message st))

(* Capacity-induced cycle: the producer sends queue_len + 1 values
   before the go-token the consumer insists on dequeuing first, so the
   last enqueue can never complete.  Every per-queue sequence is
   balanced; only the capacity edge closes the cycle. *)
let test_capacity_cycle_static () =
  let queue_len = 2 in
  let n = queue_len + 1 in
  let queues =
    [|
      { Isa.src = 0; dst = 1; cls = Isa.Qint };
      { Isa.src = 0; dst = 1; cls = Isa.Qint };
    |]
  in
  let program =
    two_cores ~queues
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 7));
        for _ = 1 to n do
          emit bb (Isa.Enq (0, r))
        done;
        emit bb (Isa.Enq (1, r));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let go = fresh_reg bb and d = fresh_reg bb in
        emit bb (Isa.Deq (go, 1));
        for _ = 1 to n do
          emit bb (Isa.Deq (d, 0))
        done;
        emit bb Isa.Halt)
  in
  let r = Verify.run ~queue_len program in
  Alcotest.(check bool) "balance holds" false (has Verify.Balance r);
  Alcotest.(check bool)
    (Fmt.str "capacity deadlock reported (got %a)"
       Fmt.(Dump.list string)
       (check_names r))
    true (has Verify.Deadlock r);
  (* The same program is fine with a queue deep enough for all n. *)
  let r' = Verify.run ~queue_len:(n + 1) program in
  Alcotest.(check bool) "deep queue clears it" true (Verify.ok r')

let test_unbalanced_static () =
  let queues = [| { Isa.src = 0; dst = 1; cls = Isa.Qint } |] in
  let program =
    two_cores ~queues
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        emit bb (Isa.Enq (0, r));
        emit bb (Isa.Enq (0, r));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb Isa.Halt)
  in
  let r = Verify.run ~queue_len:20 program in
  Alcotest.(check bool) "balance violation" true (has Verify.Balance r)

let test_wrong_endpoint_static () =
  let queues = [| { Isa.src = 0; dst = 1; cls = Isa.Qint } |] in
  let program =
    two_cores ~queues
      (fun bb -> Program.Builder.emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        emit bb (Isa.Enq (0, r));
        emit bb Isa.Halt)
  in
  let r = Verify.run ~queue_len:20 program in
  Alcotest.(check bool) "endpoint violation" true (has Verify.Endpoints r)

let test_wrong_class_static () =
  let queues = [| { Isa.src = 0; dst = 1; cls = Isa.Qfloat } |] in
  let program =
    two_cores ~queues
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        emit bb (Isa.Enq (0, r));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb Isa.Halt)
  in
  let r = Verify.run ~queue_len:20 program in
  Alcotest.(check bool) "typing violation" true (has Verify.Typing r)

let test_straightline_accepted () =
  let queues = [| { Isa.src = 0; dst = 1; cls = Isa.Qint } |] in
  let program =
    two_cores ~queues
      (fun bb ->
        let open Program.Builder in
        let r = fresh_reg bb in
        emit bb (Isa.Li (r, Types.VInt 1));
        emit bb (Isa.Enq (0, r));
        emit bb Isa.Halt)
      (fun bb ->
        let open Program.Builder in
        let d = fresh_reg bb in
        emit bb (Isa.Deq (d, 0));
        emit bb Isa.Halt)
  in
  let r = Verify.run ~queue_len:20 program in
  Alcotest.(check bool)
    (Fmt.str "accepted (got %a)" Fmt.(Dump.list string) (check_names r))
    true (Verify.ok r);
  Alcotest.(check int) "one queue checked" 1 r.Verify.queues_checked;
  Alcotest.(check int) "two comm ops" 2 r.Verify.ops_checked

(* ------------------------------------------------------------------ *)
(* Compiled code: the verifier accepts everything the compiler emits.  *)

let test_registry_accepted () =
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun cores ->
          List.iter
            (fun mode ->
              let config =
                {
                  (Compiler.default_config ~cores ()) with
                  Compiler.comm_mode = mode;
                }
              in
              let name = e.Registry.kernel.Kernel.name in
              let mname = Finepar_transform.Comm.mode_name mode in
              match Compiler.compile config e.Registry.kernel with
              | exception Verify.Rejected (k, vs) ->
                Alcotest.failf "%s cores=%d %s rejected: %s: %a" name cores
                  mname k
                  Fmt.(list ~sep:(any "; ") Verify.pp_violation)
                  vs
              | c ->
                let r =
                  Verify.run ~plan:c.Compiler.comm ~mode
                    ~queue_len:config.Compiler.machine.Config.queue_len
                    c.Compiler.code.Finepar_codegen.Lower.program
                in
                Alcotest.(check bool)
                  (Fmt.str "%s cores=%d %s verifies" name cores mname)
                  true (Verify.ok r))
            [ Finepar_transform.Comm.Queues; Finepar_transform.Comm.Shared_cache ])
        [ 1; 2; 4 ])
    Registry.all

let test_corpus_accepted () =
  (* dune runs tests with cwd = _build/default/test; the corpus is a
     declared glob dependency there. *)
  let files = Finepar_fuzz.Corpus.files Helpers.corpus_dir in
  Alcotest.(check bool) "corpus present" true (List.length files > 0);
  List.iter
    (fun path ->
      let entry = Finepar_fuzz.Corpus.load_file path in
      let case = entry.Finepar_fuzz.Corpus.case in
      match Compiler.compile case.Finepar_fuzz.Gen.config case.Finepar_fuzz.Gen.kernel with
      | exception Verify.Rejected (k, vs) ->
        Alcotest.failf "%s rejected: %s: %a" path k
          Fmt.(list ~sep:(any "; ") Verify.pp_violation)
          vs
      | c ->
        let r =
          Verify.run ~plan:c.Compiler.comm
            ~mode:case.Finepar_fuzz.Gen.config.Compiler.comm_mode
            ~queue_len:
              case.Finepar_fuzz.Gen.config.Compiler.machine.Config.queue_len
            c.Compiler.code.Finepar_codegen.Lower.program
        in
        Alcotest.(check bool) (Fmt.str "%s verifies" path) true (Verify.ok r))
    files

(* ------------------------------------------------------------------ *)
(* Mutation rules: every applicable comm corruption is caught
   statically, before any simulation.                                  *)

let test_mutations_caught_statically () =
  let module Mutate = Finepar_fuzz.Mutate in
  let rules =
    [ Mutate.Drop_dequeue; Mutate.Swap_endpoints; Mutate.Reorder_enqueue ]
  in
  let applied = Hashtbl.create 4 in
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun cores ->
          let config = Compiler.default_config ~cores () in
          let c = Compiler.compile config e.Registry.kernel in
          List.iter
            (fun rule ->
              match Mutate.corrupt rule c with
              | None -> ()
              | Some c' ->
                Hashtbl.replace applied rule
                  (1 + Option.value ~default:0 (Hashtbl.find_opt applied rule));
                let r =
                  Verify.run ~plan:c'.Compiler.comm
                    ~queue_len:config.Compiler.machine.Config.queue_len
                    c'.Compiler.code.Finepar_codegen.Lower.program
                in
                Alcotest.(check bool)
                  (Fmt.str "%s on %s cores=%d rejected statically"
                     (Mutate.comm_rule_name rule)
                     e.Registry.kernel.Kernel.name cores)
                  false (Verify.ok r))
            rules)
        [ 2; 4 ])
    Registry.all;
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Fmt.str "%s found at least one site" (Mutate.comm_rule_name rule))
        true
        (Option.value ~default:0 (Hashtbl.find_opt applied rule) > 0))
    rules

(* Shared-cache handshake corruptions, applied directly to the lowered
   code: a flag index retargeted one slot over and a flag write
   reordered before its data store must both be rejected statically by
   the Handshake check — no simulation involved. *)
let test_shared_mutations_caught_statically () =
  let module Comm = Finepar_transform.Comm in
  let flag_sites = ref 0 and reorder_sites = ref 0 in
  let exception Done in
  List.iter
    (fun (e : Registry.entry) ->
      let config =
        {
          (Compiler.default_config ~cores:2 ()) with
          Compiler.comm_mode = Comm.Shared_cache;
        }
      in
      let c = Compiler.compile config e.Registry.kernel in
      if c.Compiler.comm.Finepar_transform.Comm.transfers <> [] then begin
        let program = c.Compiler.code.Finepar_codegen.Lower.program in
        let arr_name a = program.Program.arrays.(a).Program.arr_name in
        let is_flag a = String.equal (arr_name a) Comm.flag_array_name in
        let is_data a =
          Comm.is_comm_array_name (arr_name a) && not (is_flag a)
        in
        let reverify what p =
          let r =
            Verify.run ~plan:c.Compiler.comm ~mode:Comm.Shared_cache
              ~queue_len:config.Compiler.machine.Config.queue_len p
          in
          Alcotest.(check bool)
            (Fmt.str "%s on %s rejected statically" what
               e.Registry.kernel.Kernel.name)
            false (Verify.ok r);
          Alcotest.(check bool)
            (Fmt.str "%s on %s flagged by the handshake check" what
               e.Registry.kernel.Kernel.name)
            true (has Verify.Handshake r)
        in
        let with_core_code core code =
          let cores = Array.copy program.Program.cores in
          cores.(core) <- { cores.(core) with Program.code = code };
          { program with Program.cores }
        in
        (* First spin found: retarget the [Li] feeding its flag index
           register so both the spin and the release address the wrong
           slot — internally consistent, but disagreeing with the comm
           plan's slot assignment. *)
        (try
           Array.iteri
             (fun core (cp : Program.core_program) ->
               let code = cp.Program.code in
               Array.iteri
                 (fun pc instr ->
                   match instr with
                   | Isa.Load (_, a, rf) when is_flag a ->
                     for p = pc - 1 downto 0 do
                       match code.(p) with
                       | Isa.Li (r, Finepar_ir.Types.VInt v) when r = rf ->
                         let code' = Array.copy code in
                         code'.(p) <- Isa.Li (r, Finepar_ir.Types.VInt (v + 1));
                         incr flag_sites;
                         reverify "corrupted flag slot"
                           (with_core_code core code');
                         raise Done
                       | _ -> ()
                     done
                   | _ -> ())
                 code)
             program.Program.cores
         with Done -> ());
        (* First producer handshake found: swap the data store and the
           flag release, publishing the token before the data lands. *)
        try
          Array.iteri
            (fun core (cp : Program.core_program) ->
              let code = cp.Program.code in
              Array.iteri
                (fun pc instr ->
                  match instr with
                  | Isa.Store (da, _, _)
                    when is_data da && pc + 1 < Array.length code -> (
                    match code.(pc + 1) with
                    | Isa.Store (fa, _, _) when is_flag fa ->
                      let code' = Array.copy code in
                      code'.(pc) <- code.(pc + 1);
                      code'.(pc + 1) <- code.(pc);
                      incr reorder_sites;
                      reverify "reordered flag write"
                        (with_core_code core code');
                      raise Done
                    | _ -> ())
                  | _ -> ())
                code)
            program.Program.cores
        with Done -> ()
      end)
    Registry.all;
  Alcotest.(check bool) "corrupted flag slots found sites" true (!flag_sites > 0);
  Alcotest.(check bool) "reordered flag writes found sites" true
    (!reorder_sites > 0)

(* ------------------------------------------------------------------ *)
(* Oracle integration: stuck classification and the verifier oracle.   *)

let test_oracle_classifies_max_cycles () =
  (* An honest compile whose cycle budget is then cut to 5: the program
     is untouched (the verifier accepts it), the simulator exhausts the
     budget, and the oracle must say "max-cycles", not "deadlock". *)
  let tiny_budget : Finepar_fuzz.Oracle.compile_fn =
   fun config k ->
    let c = Compiler.compile config k in
    {
      c with
      Compiler.config =
        {
          c.Compiler.config with
          Compiler.machine =
            { c.Compiler.config.Compiler.machine with Config.max_cycles = 5 };
        };
    }
  in
  let case = Finepar_fuzz.Gen.case_of_seed 1 in
  match Finepar_fuzz.Oracle.check ~compile:tiny_budget case with
  | Finepar_fuzz.Oracle.Fail f ->
    Alcotest.(check string) "classified as max-cycles" "max-cycles"
      f.Finepar_fuzz.Oracle.oracle
  | Finepar_fuzz.Oracle.Pass _ ->
    Alcotest.fail "a 5-cycle budget cannot pass"

let test_oracle_catches_corruption () =
  (* Scan seeds until drop-dequeue finds a site (single-core cases have
     none); the verifier oracle must reject that case statically. *)
  let module Mutate = Finepar_fuzz.Mutate in
  let rec scan seed =
    if seed > 100 then
      Alcotest.fail "no corruptible case in seeds 1..100"
    else
      let case = Finepar_fuzz.Gen.case_of_seed seed in
      let c = Compiler.compile case.Finepar_fuzz.Gen.config case.Finepar_fuzz.Gen.kernel in
      match Mutate.corrupt Mutate.Drop_dequeue c with
      | None -> scan (seed + 1)
      | Some _ -> (
        match
          Finepar_fuzz.Oracle.check
            ~compile:(Mutate.comm_miscompile Mutate.Drop_dequeue)
            case
        with
        | Finepar_fuzz.Oracle.Fail f ->
          Alcotest.(check string)
            (Fmt.str "seed %d corruption caught by the verifier oracle" seed)
            "verifier" f.Finepar_fuzz.Oracle.oracle
        | Finepar_fuzz.Oracle.Pass _ ->
          Alcotest.failf "seed %d: corrupted program passed" seed)
  in
  scan 1

let () =
  Alcotest.run "verify"
    [
      ( "static checks",
        [
          Alcotest.test_case "crossed deadlock (static)" `Quick
            test_crossed_static;
          Alcotest.test_case "crossed deadlock (dynamic Stuck)" `Quick
            test_crossed_dynamic;
          Alcotest.test_case "capacity-bounded cycle" `Quick
            test_capacity_cycle_static;
          Alcotest.test_case "unbalanced queue" `Quick test_unbalanced_static;
          Alcotest.test_case "wrong endpoint" `Quick test_wrong_endpoint_static;
          Alcotest.test_case "wrong value class" `Quick test_wrong_class_static;
          Alcotest.test_case "straight-line accepted" `Quick
            test_straightline_accepted;
        ] );
      ( "compiled code",
        [
          Alcotest.test_case "registry kernels accepted" `Quick
            test_registry_accepted;
          Alcotest.test_case "fuzz corpus accepted" `Quick test_corpus_accepted;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "shared-cache corruptions caught statically"
            `Quick test_shared_mutations_caught_statically;
          Alcotest.test_case "comm corruptions caught statically" `Quick
            test_mutations_caught_statically;
          Alcotest.test_case "oracle classifies max-cycles" `Quick
            test_oracle_classifies_max_cycles;
          Alcotest.test_case "oracle catches corruption" `Quick
            test_oracle_catches_corruption;
        ] );
    ]

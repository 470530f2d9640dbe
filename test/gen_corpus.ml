(* Regenerates the seed corpus under test/fuzz_corpus/.

   Each entry is the first generated case (scanning seeds from 0) that
   exhibits one feature combination the fixed test kernels do not cover;
   the scan is deterministic, so re-running this tool reproduces the
   checked-in files exactly:

     dune exec test/gen_corpus.exe -- test/fuzz_corpus

   Entries must PASS the oracle set: the corpus is a regression net (a
   replay failing later means a change broke a case that used to work),
   not a collection of open bugs. *)

module F = Finepar_fuzz

(* A profile refines a generated case: [None] means the seed does not
   exhibit the feature; [Some case'] is the (possibly rewritten) case to
   check in.  Most profiles are pure predicates; the derived ones below
   rewrite the machine configuration (capacity-1 queues, an exact
   max_cycles budget) to reach states the generator never emits. *)
let machine (c : F.Gen.case) = c.F.Gen.config.Finepar.Compiler.machine

let with_machine (c : F.Gen.case) m =
  { c with F.Gen.config = { c.F.Gen.config with Finepar.Compiler.machine = m } }

let pred p (c : F.Gen.case) = if p c then Some c else None

(* The case compiles and its comm plan moves at least one value across
   cores — without this, a "shared-cache" entry could be a case whose
   partitioning never communicates, exercising nothing. *)
let communicates (c : F.Gen.case) =
  match Finepar.Compiler.compile c.F.Gen.config c.F.Gen.kernel with
  | exception _ -> false
  | compiled ->
    compiled.Finepar.Compiler.comm.Finepar_transform.Comm.transfers <> []

(* The tightest budget both oracle runs fit in: the parallel compilation
   and the cross-core 1-core compilation share the machine config, so the
   inclusive max_cycles boundary must sit at the slower of the two. *)
let boundary_budget (c : F.Gen.case) =
  match F.Oracle.check c with
  | F.Oracle.Fail _ -> None
  | F.Oracle.Pass stats -> (
    let one =
      { c with
        F.Gen.config = { c.F.Gen.config with Finepar.Compiler.cores = 1 }
      }
    in
    match F.Oracle.check one with
    | F.Oracle.Fail _ -> None
    | F.Oracle.Pass s1 -> Some (max stats.F.Oracle.cycles s1.F.Oracle.cycles))

let profiles : (string * (F.Gen.case -> F.Gen.case option)) list =
  let has_indirect (c : F.Gen.case) =
    let found = ref false in
    Finepar_ir.Stmt.iter_block
      (fun s ->
        List.iter
          (Finepar_ir.Expr.iter (function
            | Finepar_ir.Expr.Load (_, Finepar_ir.Expr.Load _) -> found := true
            | _ -> ()))
          (Finepar_ir.Stmt.exprs s))
      c.F.Gen.kernel.Finepar_ir.Kernel.body;
    !found
  in
  let has_if (c : F.Gen.case) =
    List.exists
      (function Finepar_ir.Stmt.If _ -> true | _ -> false)
      c.F.Gen.kernel.Finepar_ir.Kernel.body
  in
  [
    ( "zero-trip",
      pred (fun c -> Finepar_ir.Kernel.trip_count c.F.Gen.kernel = 0) );
    ( "spec-narrow-queue",
      pred (fun c ->
          c.F.Gen.config.Finepar.Compiler.speculation
          && (machine c).Finepar_machine.Config.queue_len <= 3
          && has_if c) );
    ( "smt-single-core",
      pred (fun c -> c.F.Gen.placement = F.Gen.Single_core) );
    ( "smt-mod2-multipair",
      pred (fun c ->
          c.F.Gen.placement = F.Gen.Mod2
          && c.F.Gen.config.Finepar.Compiler.algorithm = `Multi_pair) );
    ( "indirect-tiny-cache",
      pred (fun c ->
          has_indirect c && (machine c).Finepar_machine.Config.l1_bytes <= 512)
    );
    ( "queue-pair-budget",
      pred (fun c ->
          c.F.Gen.config.Finepar.Compiler.cores = 4
          && c.F.Gen.config.Finepar.Compiler.max_queue_pairs <> None) );
    ( "high-latency",
      pred (fun c -> (machine c).Finepar_machine.Config.transfer_latency >= 50)
    );
    ( "nonzero-lower-bound",
      pred (fun c ->
          c.F.Gen.kernel.Finepar_ir.Kernel.lo > 0
          && Finepar_ir.Kernel.trip_count c.F.Gen.kernel > 0) );
    (* Capacity-1 queues under a long transfer latency: every enqueue
       fills the queue and every dequeue waits out the full latency, so
       the run is dominated by queue stalls — pressure the generator
       never emits (gen_config keeps queue_len >= 2), and the kind of
       wait-heavy schedule the compiled engine fast-forwards through. *)
    ( "capacity-1-queue-pressure",
      fun c ->
        if Finepar_ir.Kernel.trip_count c.F.Gen.kernel < 8 then None
        else
          let m =
            { (machine c) with
              Finepar_machine.Config.queue_len = 1;
              transfer_latency = 400
            }
          in
          let c = with_machine c m in
          match F.Oracle.check c with
          (* Demand a genuinely wait-dominated run: queues in use and
             far more cycles than issued instructions, so most of the
             run is the transfer latency, not computation. *)
          | F.Oracle.Pass stats
            when stats.F.Oracle.queues_used > 0
                 && stats.F.Oracle.cycles > 25 * stats.F.Oracle.instrs ->
            Some c
          | _ -> None );
    (* Cross-thread transfers realized through the shared cache: the
       compiler lowers every queue pair to a spin-wait valid-flag
       handshake, so the replay exercises the Load/Bz spin loops and
       flag protocol none of the queue-mode entries reach. *)
    ( "shared-cache-comm",
      pred (fun c ->
          c.F.Gen.config.Finepar.Compiler.comm_mode
            = Finepar_transform.Comm.Shared_cache
          && c.F.Gen.config.Finepar.Compiler.cores >= 2
          && Finepar_ir.Kernel.trip_count c.F.Gen.kernel > 0
          && communicates c) );
    (* The two new machine axes together: dual-issue cores spinning on
       shared-cache valid flags (an extra-slot issue must not let a
       consumer overtake the producer's flag write). *)
    ( "shared-cache-dual-issue",
      pred (fun c ->
          c.F.Gen.config.Finepar.Compiler.comm_mode
            = Finepar_transform.Comm.Shared_cache
          && (machine c).Finepar_machine.Config.issue_width = 2
          && c.F.Gen.config.Finepar.Compiler.cores >= 2
          && Finepar_ir.Kernel.trip_count c.F.Gen.kernel > 0
          && communicates c) );
    (* A budget sitting exactly on the inclusive max_cycles boundary:
       the slower of the parallel and 1-core oracle runs finishes in
       precisely max_cycles cycles (one less would raise Max_cycles). *)
    ( "max-cycles-inclusive-boundary",
      fun c ->
        if Finepar_ir.Kernel.trip_count c.F.Gen.kernel = 0 then None
        else
          match boundary_budget c with
          | Some budget when budget > 100 ->
            let m =
              { (machine c) with Finepar_machine.Config.max_cycles = budget }
            in
            Some (with_machine c m)
          | _ -> None );
  ]

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fuzz_corpus" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (name, refine) ->
      let rec scan seed =
        if seed > 20_000 then
          failwith (Printf.sprintf "no seed under 20000 matches %s" name)
        else
          match refine (F.Gen.case_of_seed seed) with
          | None -> scan (seed + 1)
          | Some case -> (
            (* The corpus is a regression net, not a bug tracker: only
               oracle-passing cases are checked in.  A refined case that
               fails (e.g. the verifier rejects the protocol at capacity
               1) just means this seed does not fit the profile. *)
            match F.Oracle.check case with
            | F.Oracle.Fail _ -> scan (seed + 1)
            | F.Oracle.Pass _ ->
              let path = Filename.concat dir (Printf.sprintf "%s.sexp" name) in
              F.Repro.save path case;
              Printf.printf "%-28s seed %-6d -> %s\n" name seed path)
      in
      scan 0)
    profiles

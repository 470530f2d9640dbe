(** The fuzzing campaign driver: generate cases from a root seed, run
    the oracle set on each, shrink and persist any failure, and report a
    machine-readable summary.

    Case [i] of a campaign rooted at [seed] is generated from the
    derived seed [seed * 1_000_003 + i], so any individual failure is
    reproducible from the summary line alone (no shared generator state
    between cases). *)

module Json = Finepar_telemetry.Json

type failure_report = {
  case_seed : int;
  failure : Oracle.failure;
  shrunk : Gen.case;
  shrunk_failure : Oracle.failure;
  repro_path : string option;
}

type summary = {
  root_seed : int;
  cases_run : int;
  passed : int;
  failed : int;
  elapsed : float;
  (* Coverage-style tallies over the generated population, so a nightly
     log shows what the campaign actually exercised. *)
  kernels_with_ifs : int;
  kernels_with_indirect : int;
  kernels_with_int_ops : int;
  speculated : int;
  multi_core : int;
  smt_cases : int;
  total_partitions : int;
  total_cycles : int;
  failures : failure_report list;
}

let derive_seed ~root i = (root * 1_000_003) + i

let case_features (case : Gen.case) =
  let has_if = ref false and has_indirect = ref false in
  let has_int = ref false in
  Finepar_ir.Stmt.iter_block
    (fun s ->
      (match s with Finepar_ir.Stmt.If _ -> has_if := true | _ -> ());
      List.iter
        (Finepar_ir.Expr.iter (fun e ->
             match e with
             | Finepar_ir.Expr.Load (_, Finepar_ir.Expr.Load _) ->
               has_indirect := true
             | Finepar_ir.Expr.Binop
                 ((Finepar_ir.Types.And | Or | Xor | Shl | Shr), _, _) ->
               has_int := true
             | _ -> ()))
        (Finepar_ir.Stmt.exprs s))
    case.Gen.kernel.Finepar_ir.Kernel.body;
  (!has_if, !has_indirect, !has_int)

(* The per-case work — generation, feature extraction, oracle checking
   and shrinking — is pure given the derived seed, so a campaign fans
   cases out over an optional domain pool.  Everything mutable (the
   coverage tallies, the failure list, corpus writes, the progress hook)
   happens in [absorb], which only ever runs on the calling domain, in
   case-index order: a parallel campaign over a fixed case count is
   byte-identical to a sequential one. *)
type case_result = {
  cr_seed : int;
  cr_has_if : bool;
  cr_has_indirect : bool;
  cr_has_int : bool;
  cr_speculated : bool;
  cr_multi_core : bool;
  cr_smt : bool;
  cr_outcome : Oracle.outcome;
  cr_shrunk : (Gen.case * Oracle.failure) option;  (** on [Fail] *)
}

let run_case ?compile ?engine case_seed =
  (* One span per case, tagged with the oracle outcome, so a traced
     campaign shows where the time went and which cases failed. *)
  Finepar_telemetry.Tracer.with_span ~cat:"fuzz"
    ~args:[ ("seed", Json.Int case_seed) ]
    "case"
  @@ fun () ->
  let case = Gen.case_of_seed case_seed in
  let has_if, has_indirect, has_int = case_features case in
  let outcome = Oracle.check ?compile ?engine case in
  Finepar_telemetry.Tracer.set_arg "outcome"
    (Json.String
       (match outcome with
       | Oracle.Pass _ -> "pass"
       | Oracle.Fail f -> "fail:" ^ f.Oracle.oracle));
  let shrunk =
    match outcome with
    | Oracle.Pass _ -> None
    | Oracle.Fail failure -> Some (Shrink.shrink ?compile ?engine case failure)
  in
  {
    cr_seed = case_seed;
    cr_has_if = has_if;
    cr_has_indirect = has_indirect;
    cr_has_int = has_int;
    cr_speculated = case.Gen.config.Finepar.Compiler.speculation;
    cr_multi_core = case.Gen.config.Finepar.Compiler.cores > 1;
    cr_smt = case.Gen.placement <> Gen.Identity;
    cr_outcome = outcome;
    cr_shrunk = shrunk;
  }

(** Run a campaign.  Stops at [cases] generated cases or once [seconds]
    of wall-clock budget is spent, whichever comes first (with a pool
    the budget is checked between batches, so a batch in flight is
    finished, not abandoned).  Failures are shrunk; when [out_dir] is
    given, each shrunk reproducer is saved there. *)
let run ?compile ?engine ?out_dir ?pool ?(seconds = infinity) ~cases ~seed ()
    =
  Finepar_telemetry.Tracer.with_span ~cat:"fuzz"
    ~args:[ ("root_seed", Json.Int seed); ("cases", Json.Int cases) ]
    "campaign"
  @@ fun () ->
  let started = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. started in
  let passed = ref 0 and failures = ref [] in
  let kernels_with_ifs = ref 0
  and kernels_with_indirect = ref 0
  and kernels_with_int_ops = ref 0
  and speculated = ref 0
  and multi_core = ref 0
  and smt_cases = ref 0
  and total_partitions = ref 0
  and total_cycles = ref 0 in
  let absorb r =
    if r.cr_has_if then incr kernels_with_ifs;
    if r.cr_has_indirect then incr kernels_with_indirect;
    if r.cr_has_int then incr kernels_with_int_ops;
    if r.cr_speculated then incr speculated;
    if r.cr_multi_core then incr multi_core;
    if r.cr_smt then incr smt_cases;
    (match (r.cr_outcome, r.cr_shrunk) with
    | Oracle.Pass stats, _ ->
      incr passed;
      total_partitions := !total_partitions + stats.Oracle.n_partitions;
      total_cycles := !total_cycles + stats.Oracle.cycles
    | Oracle.Fail failure, Some (shrunk, shrunk_failure) ->
      let repro_path =
        Option.map
          (fun dir ->
            Corpus.save dir ~oracle:shrunk_failure.Oracle.oracle
              ~seed:r.cr_seed ~failure:shrunk_failure shrunk)
          out_dir
      in
      failures :=
        { case_seed = r.cr_seed; failure; shrunk; shrunk_failure; repro_path }
        :: !failures
    | Oracle.Fail _, None -> assert false)
  in
  let workers =
    match pool with None -> 1 | Some p -> Finepar_exec.Pool.domains p
  in
  let batch = if workers <= 1 then 1 else workers * 4 in
  let i = ref 0 in
  while !i < cases && elapsed () < seconds do
    let n = min batch (cases - !i) in
    let seeds = List.init n (fun k -> derive_seed ~root:seed (!i + k)) in
    List.iter absorb
      (Finepar_exec.Pool.map_opt pool ~f:(run_case ?compile ?engine) seeds);
    i := !i + n
  done;
  {
    root_seed = seed;
    cases_run = !i;
    passed = !passed;
    failed = List.length !failures;
    elapsed = elapsed ();
    kernels_with_ifs = !kernels_with_ifs;
    kernels_with_indirect = !kernels_with_indirect;
    kernels_with_int_ops = !kernels_with_int_ops;
    speculated = !speculated;
    multi_core = !multi_core;
    smt_cases = !smt_cases;
    total_partitions = !total_partitions;
    total_cycles = !total_cycles;
    failures = List.rev !failures;
  }

let json_of_failure (f : failure_report) =
  Json.Obj
    [
      ("seed", Json.Int f.case_seed);
      ("oracle", Json.String f.failure.Oracle.oracle);
      ("message", Json.String f.failure.Oracle.message);
      ("shrunk_statements", Json.Int (Shrink.stmt_count f.shrunk.Gen.kernel));
      ("shrunk_oracle", Json.String f.shrunk_failure.Oracle.oracle);
      ( "repro",
        match f.repro_path with
        | None -> Json.Null
        | Some p -> Json.String p );
    ]

(* Deliberately excludes [elapsed]: the summary JSON is a pure function
   of the root seed and case count, so sequential and parallel campaigns
   (and CI reruns) can be diffed byte for byte.  Wall-clock numbers
   belong in the harness's text output.  The optional [pool] object
   (busy/idle seconds, load imbalance) is scheduling-dependent, so
   callers attach it only when the user asked for profiling — the CI
   determinism diffs never pass it. *)
let json_of_summary ?pool (s : summary) =
  Json.Obj
    ([
       ("root_seed", Json.Int s.root_seed);
       ("cases_run", Json.Int s.cases_run);
       ("passed", Json.Int s.passed);
       ("failed", Json.Int s.failed);
       ( "coverage",
         Json.Obj
           [
             ("kernels_with_ifs", Json.Int s.kernels_with_ifs);
             ("kernels_with_indirect", Json.Int s.kernels_with_indirect);
             ("kernels_with_int_ops", Json.Int s.kernels_with_int_ops);
             ("speculated_configs", Json.Int s.speculated);
             ("multi_core_configs", Json.Int s.multi_core);
             ("smt_placements", Json.Int s.smt_cases);
             ("total_partitions", Json.Int s.total_partitions);
             ("total_cycles", Json.Int s.total_cycles);
           ] );
       ("failures", Json.List (List.map json_of_failure s.failures));
     ]
    @
    match pool with
    | None -> []
    | Some p -> [ ("pool", Finepar_exec.Pool.stats_json p) ])

let summary_to_json ?pool s = Json.to_string (json_of_summary ?pool s)

(* Tests for the differential fuzzing subsystem:

   - generator soundness: random cases pass the full oracle set (any
     compiler rejection of a generated kernel is itself a failure);
   - determinism of generation and of whole campaigns from a seed;
   - reproducer serialization round-trips bit-exactly;
   - the shrinker only proposes strictly smaller, still-valid kernels;
   - mutation smoke test: a deliberately injected miscompile is caught
     by the bit-exact oracle and shrunk to a minimal reproducer;
   - the checked-in regression corpus replays green. *)

module F = Finepar_fuzz

let fail_failure seed f =
  Alcotest.failf "seed %d: %a" seed F.Oracle.pp_failure f

(* ------------------------------------------------------------------ *)
(* Generator + oracle.                                                 *)

let test_oracle_passes () =
  for seed = 0 to 119 do
    match F.Oracle.check (F.Gen.case_of_seed seed) with
    | F.Oracle.Pass _ -> ()
    | F.Oracle.Fail f -> fail_failure seed f
  done

let test_generation_deterministic () =
  List.iter
    (fun seed ->
      let a = F.Gen.case_of_seed seed and b = F.Gen.case_of_seed seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d regenerates identically" seed)
        (F.Repro.to_string a) (F.Repro.to_string b))
    [ 0; 1; 17; 42; 31337; 123456789 ]

let test_generator_covers_features () =
  (* Over a modest seed range the generator must actually produce the
     constructs it exists to cover. *)
  let has_if = ref false
  and has_indirect = ref false
  and has_zero_trip = ref false
  and has_nonzero_lo = ref false
  and has_smt = ref false
  and has_speculation = ref false
  and has_multipair = ref false in
  for seed = 0 to 299 do
    let c = F.Gen.case_of_seed seed in
    let k = c.F.Gen.kernel in
    if Finepar_ir.Kernel.trip_count k = 0 then has_zero_trip := true;
    if k.Finepar_ir.Kernel.lo > 0 then has_nonzero_lo := true;
    if c.F.Gen.placement <> F.Gen.Identity then has_smt := true;
    if c.F.Gen.config.Finepar.Compiler.speculation then has_speculation := true;
    if c.F.Gen.config.Finepar.Compiler.algorithm = `Multi_pair then
      has_multipair := true;
    Finepar_ir.Stmt.iter_block
      (fun s ->
        (match s with Finepar_ir.Stmt.If _ -> has_if := true | _ -> ());
        List.iter
          (Finepar_ir.Expr.iter (function
            | Finepar_ir.Expr.Load (_, Finepar_ir.Expr.Load _) ->
              has_indirect := true
            | _ -> ()))
          (Finepar_ir.Stmt.exprs s))
      k.Finepar_ir.Kernel.body
  done;
  List.iter
    (fun (name, seen) -> Alcotest.(check bool) name true !seen)
    [
      ("conditionals", has_if); ("indirect addressing", has_indirect);
      ("zero-trip loops", has_zero_trip); ("nonzero lower bounds", has_nonzero_lo);
      ("smt placements", has_smt); ("speculation", has_speculation);
      ("multi-pair merge", has_multipair);
    ]

(* ------------------------------------------------------------------ *)
(* Reproducer round-trip.                                              *)

let test_repro_roundtrip () =
  List.iter
    (fun seed ->
      let case = F.Gen.case_of_seed seed in
      let text = F.Repro.to_string case in
      let case' = F.Repro.of_string text in
      Alcotest.(check string)
        (Printf.sprintf "seed %d round-trips" seed)
        text (F.Repro.to_string case');
      match F.Oracle.check case' with
      | F.Oracle.Pass _ -> ()
      | F.Oracle.Fail f -> fail_failure seed f)
    [ 0; 3; 42; 777; 424242 ]

(* A reproducer carrying a config field this build does not know must
   be rejected loudly, not silently dropped: a silently-ignored knob
   replays a different configuration than the one that failed. *)
let test_repro_rejects_unknown_field () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let inject_before ~marker ~insert text =
    let n = String.length text and m = String.length marker in
    let rec find i =
      if i + m > n then Alcotest.failf "marker %s not found" marker
      else if String.sub text i m = marker then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub text 0 i ^ insert ^ String.sub text i (n - i)
  in
  let text = F.Repro.to_string (F.Gen.case_of_seed 0) in
  List.iter
    (fun (marker, insert, expected) ->
      match F.Repro.of_string (inject_before ~marker ~insert text) with
      | exception F.Repro.Parse_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the field: %s" msg)
          true (contains msg expected)
      | _ -> Alcotest.failf "unknown field %s accepted" expected)
    [
      ("(cores", "(frobnicate 3) ", "unknown config field \"frobnicate\"");
      ( "(queue_len",
        "(bogus_latency 9) ",
        "unknown machine field \"bogus_latency\"" );
    ]

let test_repro_parse_errors () =
  (* Lexical errors (strings, escapes) are found over the whole input
     before any structural one, so ")\"" reports the string. *)
  List.iter
    (fun (input, expected) ->
      match F.Repro.parse_sexp input with
      | exception F.Repro.Parse_error msg ->
        Alcotest.(check string) (Printf.sprintf "error for %S" input) expected msg
      | _ -> Alcotest.failf "%S parsed" input)
    [
      ("", "unexpected end of input");
      (")", "unexpected ')'");
      ("(a", "unterminated '('");
      ("a b", "trailing input at \"b\"");
      ("\"ab", "unterminated string literal");
      ("\"a\\", "unterminated escape in string");
      ("\"\\q\"", "unknown escape '\\q'");
      (")\"", "unterminated string literal");
    ];
  (* A long flat list (a big workload array) parses without stack
     depth proportional to its length. *)
  let long =
    F.Repro.List (List.init 100_000 (fun i -> F.Repro.Atom (string_of_int i)))
  in
  let text = F.Repro.canon long in
  Alcotest.(check bool) "100k-atom list round-trips" true
    (F.Repro.parse_sexp text = long)

let test_repro_hex_floats () =
  (* Float constants survive bit-exactly even when decimal printing
     would not round-trip. *)
  let case = F.Gen.case_of_seed 12345 in
  let k = case.F.Gen.kernel in
  let tricky =
    {
      k with
      Finepar_ir.Kernel.scalars =
        [
          {
            Finepar_ir.Kernel.s_name = "p";
            s_ty = Finepar_ir.Types.F64;
            s_init = Finepar_ir.Types.VFloat 0.1;
          };
        ];
      body =
        [
          Finepar_ir.Stmt.Store
            ( "out",
              Finepar_ir.Expr.Var "i",
              Finepar_ir.Expr.Binop
                ( Finepar_ir.Types.Add,
                  Finepar_ir.Expr.Var "p",
                  Finepar_ir.Expr.Const
                    (Finepar_ir.Types.VFloat (1.0 /. 3.0)) ) );
        ];
      live_out = [];
      arrays =
        [
          {
            Finepar_ir.Kernel.a_name = "out";
            a_ty = Finepar_ir.Types.F64;
            a_len = max 4 k.Finepar_ir.Kernel.hi;
          };
        ];
    }
  in
  let case = { case with F.Gen.kernel = Finepar_ir.Kernel.validate tricky } in
  let case' = F.Repro.of_string (F.Repro.to_string case) in
  match
    ( (F.Repro.of_string (F.Repro.to_string case)).F.Gen.kernel.Finepar_ir.Kernel.scalars,
      case'.F.Gen.kernel.Finepar_ir.Kernel.body )
  with
  | [ { Finepar_ir.Kernel.s_init = Finepar_ir.Types.VFloat p; _ } ], _ ->
    Alcotest.(check bool) "0.1 preserved bit-exactly" true
      (Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float 0.1))
  | _ -> Alcotest.fail "scalar lost in round-trip"

(* ------------------------------------------------------------------ *)
(* Shrinker.                                                           *)

let test_shrink_candidates_smaller () =
  List.iter
    (fun seed ->
      let k = (F.Gen.case_of_seed seed).F.Gen.kernel in
      let cost = F.Shrink.kernel_cost k in
      let candidates = F.Shrink.kernel_candidates k in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d has reduction candidates" seed)
        true
        (List.length candidates > 0);
      List.iter
        (fun k' ->
          Alcotest.(check bool) "strictly smaller" true
            (F.Shrink.kernel_cost k' < cost))
        candidates)
    [ 0; 5; 42; 99 ]

(* The acceptance gate for the whole harness: an injected miscompile
   must be caught and shrunk to a minimal reproducer. *)
let mutation_smoke rule () =
  let compile = F.Mutate.miscompile rule in
  let rec first_catch seed =
    if seed > 400 then Alcotest.failf "no case caught %s" (F.Mutate.rule_name rule)
    else
      let case = F.Gen.case_of_seed seed in
      match F.Oracle.check ~compile case with
      | F.Oracle.Fail f -> (seed, case, f)
      | F.Oracle.Pass _ -> first_catch (seed + 1)
  in
  let seed, case, failure = first_catch 0 in
  Alcotest.(check string)
    (Printf.sprintf "%s caught by the bit-exact oracle (seed %d)"
       (F.Mutate.rule_name rule) seed)
    "bit-exact" failure.F.Oracle.oracle;
  let shrunk, shrunk_failure = F.Shrink.shrink ~compile case failure in
  Alcotest.(check string) "failure preserved while shrinking" "bit-exact"
    shrunk_failure.F.Oracle.oracle;
  let n = F.Shrink.stmt_count shrunk.F.Gen.kernel in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk to <= 6 statements (got %d)" n)
    true (n <= 6);
  (* The minimal reproducer survives serialization and still fails. *)
  let replayed = F.Repro.of_string (F.Repro.to_string ~failure:shrunk_failure shrunk) in
  match F.Oracle.check ~compile replayed with
  | F.Oracle.Fail f ->
    Alcotest.(check string) "replayed reproducer fails identically"
      shrunk_failure.F.Oracle.oracle f.F.Oracle.oracle
  | F.Oracle.Pass _ -> Alcotest.fail "reproducer no longer fails after replay"

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let test_driver_deterministic () =
  let run () = F.Driver.run ~cases:40 ~seed:5 () in
  let a = run () and b = run () in
  Alcotest.(check int) "cases" a.F.Driver.cases_run b.F.Driver.cases_run;
  Alcotest.(check int) "passed" a.F.Driver.passed b.F.Driver.passed;
  Alcotest.(check int) "failed" a.F.Driver.failed b.F.Driver.failed;
  Alcotest.(check int) "ifs" a.F.Driver.kernels_with_ifs b.F.Driver.kernels_with_ifs;
  Alcotest.(check int) "indirect" a.F.Driver.kernels_with_indirect
    b.F.Driver.kernels_with_indirect;
  Alcotest.(check int) "partitions" a.F.Driver.total_partitions
    b.F.Driver.total_partitions;
  Alcotest.(check int) "cycles" a.F.Driver.total_cycles b.F.Driver.total_cycles;
  Alcotest.(check int) "no failures expected" 0 a.F.Driver.failed

let test_driver_reports_and_saves () =
  (* Under an injected miscompile the driver must report, shrink and
     persist reproducers. *)
  let dir = "fuzz-driver-out.tmp" in
  let compile = F.Mutate.miscompile F.Mutate.Swap_add_sub in
  let s = F.Driver.run ~compile ~out_dir:dir ~cases:30 ~seed:0 () in
  Alcotest.(check bool) "some cases fail under the miscompile" true
    (s.F.Driver.failed > 0);
  Alcotest.(check int) "every failure saved a reproducer"
    s.F.Driver.failed
    (List.length (F.Corpus.files dir));
  List.iter
    (fun (r : F.Driver.failure_report) ->
      Alcotest.(check bool) "reproducer path recorded" true
        (r.F.Driver.repro_path <> None);
      Alcotest.(check bool) "shrunk small" true
        (F.Shrink.stmt_count r.F.Driver.shrunk.F.Gen.kernel <= 6))
    s.F.Driver.failures;
  (* The saved reproducers replay as failures under the same compile. *)
  List.iter
    (fun (r : F.Corpus.replay) ->
      match r.F.Corpus.outcome with
      | Ok (F.Oracle.Fail _) -> ()
      | Ok (F.Oracle.Pass _) -> Alcotest.fail "saved reproducer passes"
      | Error m -> Alcotest.failf "unreadable reproducer: %s" m)
    (F.Corpus.replay_dir ~compile dir);
  (* Summary JSON is well-formed enough to mention every failure. *)
  let json = F.Driver.summary_to_json s in
  Alcotest.(check bool) "summary mentions failures" true
    (s.F.Driver.failed = 0
    || (String.length json > 0
       && String.length json > String.length "{\"root_seed\""));
  List.iter (fun f -> Sys.remove f) (F.Corpus.files dir);
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Corpus replay.                                                      *)

let test_corpus_green () =
  let replays = F.Corpus.replay_dir "fuzz_corpus" in
  Alcotest.(check bool)
    (Printf.sprintf "corpus present (%d entries)" (List.length replays))
    true
    (List.length replays >= 5);
  List.iter
    (fun (r : F.Corpus.replay) ->
      match r.F.Corpus.outcome with
      | Ok (F.Oracle.Pass _) -> ()
      | Ok (F.Oracle.Fail f) ->
        Alcotest.failf "%s: %a" r.F.Corpus.entry.F.Corpus.path
          F.Oracle.pp_failure f
      | Error m ->
        Alcotest.failf "%s: unreadable: %s" r.F.Corpus.entry.F.Corpus.path m)
    replays

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "oracle passes on random cases" `Quick
            test_oracle_passes;
          Alcotest.test_case "generation is deterministic" `Quick
            test_generation_deterministic;
          Alcotest.test_case "feature coverage" `Quick
            test_generator_covers_features;
        ] );
      ( "repro",
        [
          Alcotest.test_case "round-trip" `Quick test_repro_roundtrip;
          Alcotest.test_case "unknown fields rejected" `Quick
            test_repro_rejects_unknown_field;
          Alcotest.test_case "hex float bit-exactness" `Quick
            test_repro_hex_floats;
          Alcotest.test_case "parse errors pinned, long lists" `Quick
            test_repro_parse_errors;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "candidates strictly smaller and valid" `Quick
            test_shrink_candidates_smaller;
          Alcotest.test_case "mutation smoke: swap add/sub" `Quick
            (mutation_smoke F.Mutate.Swap_add_sub);
          Alcotest.test_case "mutation smoke: perturb const" `Quick
            (mutation_smoke F.Mutate.Perturb_const);
          Alcotest.test_case "mutation smoke: negate condition" `Quick
            (mutation_smoke F.Mutate.Negate_condition);
        ] );
      ( "driver",
        [
          Alcotest.test_case "campaigns are deterministic" `Quick
            test_driver_deterministic;
          Alcotest.test_case "failures reported, shrunk and saved" `Quick
            test_driver_reports_and_saves;
        ] );
      ( "corpus",
        [ Alcotest.test_case "regression corpus replays green" `Quick
            test_corpus_green ] );
    ]

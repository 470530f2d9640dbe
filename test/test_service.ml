(* Tests for the compile-and-simulate service:

   - wire round-trips: requests, responses, quoted atoms, hex floats
     (including non-finite weights) and full Report.t payloads;
   - cache key hygiene: every job component change is a different key,
     the engine is not part of the key (a run stored under one engine
     is a hit under the other), a code-version bump invalidates the
     whole store;
   - the store survives corruption: truncated / garbage / mismatched
     entries are misses (and are removed), never crashes;
   - eviction respects max_entries;
   - responses are byte-identical cached-vs-fresh and -j1-vs-jN;
   - errors are answered deterministically but never cached;
   - registry workloads travel by name and decode to the registry's own
     value, a copy travels explicitly with the same key and bytes, a bad
     name or digest fails only its slot, and 500 mutated registry frames
     are each answered without raising;
   - concurrent clients against one forked server over a Unix domain
     socket all get the same bytes. *)

module F = Finepar_fuzz
module Wire = Finepar_service.Wire
module Cache = Finepar_service.Cache
module Server = Finepar_service.Server
module Client = Finepar_service.Client
module Version = Finepar_service.Version

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "finepar-svc-test-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let job_of_case (c : F.Gen.case) =
  {
    Wire.kernel = c.F.Gen.kernel;
    config = c.F.Gen.config;
    sequential = false;
    placement = c.F.Gen.placement;
    workload = Wire.Seeded c.F.Gen.workload_seed;
    profile_counters = [];
  }

let job_of_seed seed = job_of_case (F.Gen.case_of_seed seed)

let requests_of_seed seed =
  let job = job_of_seed seed in
  List.map
    (fun engine -> Wire.Run { job; engine })
    Finepar_machine.Engine.all
  @ [ Wire.Compile job ]

(* ------------------------------------------------------------------ *)
(* Wire round-trips.                                                   *)

let test_request_roundtrip () =
  List.iter
    (fun seed ->
      List.iter
        (fun req ->
          let s = Wire.request_to_string req in
          let s' = Wire.request_to_string (Wire.request_of_string s) in
          Alcotest.(check string)
            (Printf.sprintf "seed %d request round-trips" seed)
            s s')
        (requests_of_seed seed))
    [ 0; 1; 17; 42; 31337 ]

module Registry = Finepar_kernels.Registry

let registry_job ?workload (e : Registry.entry) =
  {
    Wire.kernel = e.Registry.kernel;
    config = Finepar.Compiler.default_config ();
    sequential = false;
    placement = F.Gen.Identity;
    workload = Wire.Explicit (Option.value workload ~default:e.Registry.workload);
    profile_counters = [];
  }

let registry_name (e : Registry.entry) = e.Registry.kernel.Finepar_ir.Kernel.name

(* Equal values, but not the registry's own: travels as explicit. *)
let deep_copy (e : Registry.entry) =
  List.map (fun (name, vals) -> (name, Array.copy vals)) e.Registry.workload

let test_registry_explicit_workload_roundtrip () =
  (* Registry workloads (arrays of hex floats and ints) round-trip both
     as the explicit values of a copy and by name. *)
  List.iter
    (fun (e : Registry.entry) ->
      List.iter
        (fun workload ->
          let job =
            { (registry_job ?workload e) with
              profile_counters = [ ("x", 1024, 37) ] }
          in
          let req = Wire.Run { job; engine = Finepar_machine.Engine.Cycle } in
          let s = Wire.request_to_string req in
          Alcotest.(check string)
            (e.Registry.app ^ " explicit workload round-trips")
            s
            (Wire.request_to_string (Wire.request_of_string s)))
        [ None; Some (deep_copy e) ])
    Registry.all

let test_registry_workloads_by_name () =
  List.iter
    (fun (e : Registry.entry) ->
      let name = registry_name e in
      let s = Wire.request_to_string (Wire.Compile (registry_job e)) in
      Alcotest.(check bool) (name ^ " travels by name") true
        (Helpers.contains ~sub:("(workload registry " ^ name ^ " ") s);
      Alcotest.(check bool) (name ^ " carries no values") false
        (Helpers.contains ~sub:"explicit" s);
      match Wire.request_of_string s with
      | Wire.Compile { workload = Wire.Explicit w; _ } ->
        Alcotest.(check bool) (name ^ " decodes to the registry's own value")
          true (w == e.Registry.workload)
      | _ -> Alcotest.failf "%s: expected a compile with explicit values" name)
    Registry.all

let roundtrip_weight w =
  let config =
    {
      (Finepar.Compiler.default_config ()) with
      Finepar.Compiler.weights =
        { Finepar_partition.Affinity.w_dep = w; w_time = -0.0; w_prox = w };
    }
  in
  let config' = Wire.config_of_sexp (Wire.sexp_of_config config) in
  config'.Finepar.Compiler.weights

let test_nonfinite_weights_roundtrip () =
  (* Floats travel as %h atoms: bit-exact for finite values, negative
     zero and the infinities.  NaNs canonicalize — %h prints a payload-
     free "nan" — which is exactly what the content-addressed cache
     needs: every NaN digests to the same key. *)
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun w ->
      let weights = roundtrip_weight w in
      Alcotest.(check int64)
        (Printf.sprintf "%h bits" w)
        (bits w)
        (bits weights.Finepar_partition.Affinity.w_dep);
      Alcotest.(check int64)
        "negative zero bits"
        (bits (-0.0))
        (bits weights.Finepar_partition.Affinity.w_time))
    [ Float.infinity; Float.neg_infinity; 0x1.fffp-3; 1e300; Float.min_float ];
  let weights = roundtrip_weight Float.nan in
  Alcotest.(check bool) "nan survives as nan" true
    (Float.is_nan weights.Finepar_partition.Affinity.w_dep);
  Alcotest.(check int64) "nan canonicalizes to one bit pattern"
    (bits (Float.of_string "nan"))
    (bits weights.Finepar_partition.Affinity.w_dep);
  (* The config digest hashes workload values as bits, under the same
     equivalence: a job's key equals its wire round-trip's key even when
     the workload holds values the text renders specially. *)
  let cache = Cache.create (temp_dir ()) in
  let key job = Cache.key_of_request cache (Wire.Run { job; engine = Cycle }) in
  let job =
    {
      (job_of_seed 3) with
      Wire.workload =
        Wire.Explicit
          [
            ( "a",
              Array.map
                (fun f -> Finepar_ir.Types.VFloat f)
                [|
                  -0.0; Float.infinity; Float.neg_infinity; 0x1p-1074;
                  Int64.float_of_bits 0x7FF8000000000001L;
                  Int64.float_of_bits 0x7FF0000000000abcL;
                  Int64.float_of_bits 0xFFF8000000000001L;
                |] );
            ("n", [| Finepar_ir.Types.VInt min_int; VInt (-1) |]);
          ];
    }
  in
  let decoded =
    match
      Wire.request_of_string (Wire.request_to_string (Wire.Run { job; engine = Cycle }))
    with
    | Wire.Run { job; _ } -> job
    | _ -> Alcotest.fail "a run request decoded as another kind"
  in
  Alcotest.(check bool) "key equals the wire round-trip's key" true
    (key job = key decoded)

let test_quoted_atoms_roundtrip () =
  (* The sexp layer must carry atoms the plain tokenizer would split or
     drop: spaces, parens, quotes, backslashes, newlines, empty. *)
  List.iter
    (fun atom ->
      let s = F.Repro.canon (F.Repro.List [ F.Repro.Atom atom ]) in
      match F.Repro.parse_sexp s with
      | F.Repro.List [ F.Repro.Atom a ] ->
        Alcotest.(check string) (Printf.sprintf "atom %S" atom) atom a
      | _ -> Alcotest.failf "atom %S reparsed to a different shape" atom)
    [
      "plain"; "two words"; "pa(ren)s"; "qu\"ote"; "back\\slash";
      "tab\tnew\nline"; ""; "; not a comment"; "\"";
    ]

let test_response_roundtrip_with_report () =
  (* Full Run payload — including the telemetry report with histograms
     — must round-trip to identical canonical bytes, and the decoded
     report must serialize (JSON and CSV) identically to the
     original. *)
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let reqs = requests_of_seed 7 in
  let responses = Server.handle_requests server (List.map Result.ok reqs) in
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length responses);
  List.iter
    (fun s ->
      let r = Wire.response_of_string s in
      Alcotest.(check string) "response round-trips" s
        (Wire.response_to_string r);
      match r with
      | Wire.Run_result p ->
        let report' =
          Wire.report_of_sexp (Wire.sexp_of_report p.Wire.report)
        in
        Alcotest.(check string) "report JSON survives decode"
          (Finepar_telemetry.Json.to_string
             (Finepar.Report.to_json p.Wire.report))
          (Finepar_telemetry.Json.to_string (Finepar.Report.to_json report'));
        Alcotest.(check string) "report CSV survives decode"
          (Finepar.Report.to_csv p.Wire.report)
          (Finepar.Report.to_csv report')
      | Wire.Compile_result _ -> ()
      | _ -> Alcotest.fail "unexpected response kind")
    responses

(* ------------------------------------------------------------------ *)
(* Cache keys.                                                         *)

let test_key_sensitivity () =
  let cache = Cache.create (temp_dir ()) in
  let key req =
    match Cache.key_of_request cache req with
    | Some k -> k
    | None -> Alcotest.fail "cacheable request has no key"
  in
  let base_job = job_of_seed 3 in
  let base = key (Wire.Run { job = base_job; engine = Cycle }) in
  let check_differs name variant =
    let k = key variant in
    Alcotest.(check bool) (name ^ " changes the key") false (k = base)
  in
  let other = job_of_seed 4 in
  check_differs "kernel"
    (Wire.Run { job = { base_job with kernel = other.Wire.kernel }; engine = Cycle });
  check_differs "machine latency"
    (Wire.Run
       {
         job =
           {
             base_job with
             config =
               {
                 base_job.config with
                 Finepar.Compiler.machine =
                   {
                     base_job.config.Finepar.Compiler.machine with
                     Finepar_machine.Config.transfer_latency =
                       base_job.config.Finepar.Compiler.machine
                         .Finepar_machine.Config.transfer_latency + 1;
                   };
               };
           };
         engine = Cycle;
       });
  check_differs "sequential flag"
    (Wire.Run { job = { base_job with sequential = true }; engine = Cycle });
  check_differs "placement"
    (Wire.Run
       { job = { base_job with placement = F.Gen.Single_core }; engine = Cycle });
  check_differs "workload seed"
    (Wire.Run { job = { base_job with workload = Wire.Seeded 999 }; engine = Cycle });
  check_differs "profile counters"
    (Wire.Run
       {
         job = { base_job with profile_counters = [ ("a", 10, 1) ] };
         engine = Cycle;
       });
  (* Explicit workloads digest by value and by array boundary. *)
  let explicit arrays =
    Wire.Run
      {
        job =
          {
            base_job with
            workload =
              Wire.Explicit
                (List.map
                   (fun (name, fs) ->
                     (name, Array.map (fun f -> Finepar_ir.Types.VFloat f) fs))
                   arrays);
          };
        engine = Cycle;
      }
  in
  let differ name a b =
    Alcotest.(check bool) (name ^ " changes the key") false
      (key (explicit a) = key (explicit b))
  in
  let base_arrays = [ ("x", [| 1.0; 2.0 |]); ("y", [| 3.0 |]) ] in
  differ "a one-ulp change" base_arrays
    [ ("x", [| 1.0; Float.succ 2.0 |]); ("y", [| 3.0 |]) ];
  differ "a value moved to the next array" base_arrays
    [ ("x", [| 1.0 |]); ("y", [| 2.0; 3.0 |]) ];
  differ "a renamed array" base_arrays
    [ ("x", [| 1.0; 2.0 |]); ("z", [| 3.0 |]) ];
  differ "negative zero" [ ("x", [| 0.0 |]) ] [ ("x", [| -0.0 |]) ];
  (* The wire text keeps a NaN's sign ("nan" vs "-nan"), so the key
     does too. *)
  differ "a NaN's sign" [ ("x", [| Float.nan |]) ]
    [ ("x", [| Float.neg Float.nan |]) ];
  (* Both engines answer a run with the same bytes, so the engine is a
     hint for how to compute, not a key component; the request kind
     still is. *)
  Alcotest.(check bool) "engine leaves the key unchanged" true
    (key (Wire.Run { job = base_job; engine = Compiled }) = base);
  check_differs "request kind (compile)" (Wire.Compile base_job);
  (* Control requests are keyless. *)
  List.iter
    (fun req ->
      Alcotest.(check bool) "control request has no key" true
        (Cache.key_of_request cache req = None))
    [ Wire.Stats; Wire.Ping; Wire.Shutdown ]

let test_version_bump_invalidates () =
  let dir = temp_dir () in
  let v1 = Cache.create ~version:"test-v1" dir in
  let req = Wire.Run { job = job_of_seed 5; engine = Cycle } in
  let k1 = Option.get (Cache.key_of_request v1 req) in
  Cache.store v1 k1 "(response (kind pong) (version test-v1))";
  Alcotest.(check bool) "same version hits" true (Cache.find v1 k1 <> None);
  let v2 = Cache.create ~version:"test-v2" dir in
  let k2 = Option.get (Cache.key_of_request v2 req) in
  Alcotest.(check bool) "bumped version misses" true (Cache.find v2 k2 = None);
  Alcotest.(check string) "only the version component moved"
    k1.Cache.kernel_digest k2.Cache.kernel_digest;
  (* The current version answers nothing stored by the previous one. *)
  let old = Cache.create ~version:"fp-svc-4" dir in
  let k_old = Option.get (Cache.key_of_request old req) in
  Cache.store old k_old "(response (kind pong) (version fp-svc-4))";
  let current = Cache.create dir in
  Alcotest.(check bool) "an fp-svc-4 entry misses" true
    (Cache.find current (Option.get (Cache.key_of_request current req)) = None)

let test_corrupt_entries_are_misses () =
  let dir = temp_dir () in
  let cache = Cache.create dir in
  let req = Wire.Run { job = job_of_seed 6; engine = Cycle } in
  let key = Option.get (Cache.key_of_request cache req) in
  let response = "(response (kind pong) (version x))" in
  let entry_path () =
    (* The single .sexp file under the sharded store. *)
    let files = ref [] in
    let rec walk d =
      Array.iter
        (fun name ->
          let p = Filename.concat d name in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix p ".sexp" then files := p :: !files)
        (Sys.readdir d)
    in
    walk dir;
    match !files with
    | [ p ] -> p
    | l -> Alcotest.failf "expected one entry file, found %d" (List.length l)
  in
  let corrupt_with bytes =
    Cache.store cache key response;
    Alcotest.(check (option string)) "intact entry hits" (Some response)
      (Cache.find cache key);
    let p = entry_path () in
    let oc = open_out_bin p in
    output_string oc bytes;
    close_out oc;
    Alcotest.(check (option string)) "corrupt entry is a miss" None
      (Cache.find cache key);
    Alcotest.(check bool) "corrupt entry was removed" false (Sys.file_exists p)
  in
  corrupt_with "";
  corrupt_with "garbage that is not even a sexp (((";
  corrupt_with
    "(entry (kernel_digest 0) (config_digest 0) (kind run) (version x))\n(response (kind pong) (version x))\n";
  (* Truncated mid-payload: valid header, unparsable rest. *)
  Cache.store cache key response;
  let p = entry_path () in
  let ic = open_in_bin p in
  let header = input_line ic in
  close_in ic;
  let oc = open_out_bin p in
  output_string oc (header ^ "\n(response (kind");
  close_out oc;
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Cache.find cache key);
  let corrupt = List.assoc "corrupt" (Cache.counters cache) in
  Alcotest.(check bool)
    (Printf.sprintf "corrupt counter advanced (%d)" corrupt)
    true (corrupt >= 4)

let test_eviction_respects_max_entries () =
  let dir = temp_dir () in
  let cache = Cache.create ~max_entries:2 dir in
  List.iter
    (fun seed ->
      let req = Wire.Run { job = job_of_seed seed; engine = Cycle } in
      let key = Option.get (Cache.key_of_request cache req) in
      Cache.store cache key "(response (kind pong) (version x))")
    [ 10; 11; 12; 13 ];
  Alcotest.(check int) "entries bounded" 2 (Cache.entries cache);
  Alcotest.(check int) "evictions counted" 2
    (List.assoc "evictions" (Cache.counters cache))

(* ------------------------------------------------------------------ *)
(* Server determinism.                                                 *)

let batch_for seeds =
  List.concat_map (fun seed -> requests_of_seed seed) seeds

let test_cached_equals_fresh () =
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let reqs = List.map Result.ok (batch_for [ 20; 21; 22 ]) in
  let cold = Server.handle_requests server reqs in
  let warm = Server.handle_requests server reqs in
  Alcotest.(check (list string)) "cached bytes equal fresh bytes" cold warm;
  let counters = Cache.counters cache in
  Alcotest.(check int) "second pass all hits" (List.length reqs)
    (List.assoc "hits" counters);
  Alcotest.(check int) "first pass all misses" (List.length reqs)
    (List.assoc "misses" counters)

(* A run answered under the cycle stepper is stored once and served to a
   compiled-engine request as a hit, byte-identical to what a fresh
   compiled run computes; the same twins inside one batch frame are
   computed once. *)
let test_engine_twins_share_entry () =
  let entry = List.hd Finepar_kernels.Registry.all in
  let job =
    {
      Wire.kernel = entry.Finepar_kernels.Registry.kernel;
      config = Finepar.Compiler.default_config ();
      sequential = false;
      placement = F.Gen.Identity;
      workload = Wire.Explicit entry.Finepar_kernels.Registry.workload;
      profile_counters = [];
    }
  in
  let run engine = [ Ok (Wire.Run { job; engine }) ] in
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let stored = Server.handle_requests server (run Cycle) in
  let served = Server.handle_requests server (run Compiled) in
  let fresh =
    Server.handle_requests
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      (run Compiled)
  in
  (match List.map Wire.response_of_string stored with
  | [ Wire.Run_result _ ] -> ()
  | _ -> Alcotest.fail "expected a Run_result");
  let counters = Cache.counters cache in
  Alcotest.(check int) "compiled request was a hit" 1
    (List.assoc "hits" counters);
  Alcotest.(check int) "only the cycle request missed" 1
    (List.assoc "misses" counters);
  Alcotest.(check (list string)) "served bytes equal the stored cycle answer"
    stored served;
  Alcotest.(check (list string)) "served bytes equal a fresh compiled run"
    fresh served;
  (* Twins inside one batch frame are simulated and stored once, and
     both slots carry that one answer. *)
  let module Tracer = Finepar_telemetry.Tracer in
  let cache = Cache.create (temp_dir ()) in
  let tracer = Tracer.create () in
  Tracer.install tracer;
  let frame =
    Fun.protect ~finally:Tracer.uninstall (fun () ->
        Server.handle_frame
          (Server.create ~cache ())
          (Wire.batch_to_string
             [
               Wire.Run { job; engine = Cycle };
               Wire.Run { job; engine = Compiled };
             ]))
  in
  Alcotest.(check (list string)) "both twins answered with the fresh bytes"
    (fresh @ fresh)
    (List.map F.Repro.canon (Wire.batch_items_of_string frame));
  Alcotest.(check int) "one sim span for the twins" 1
    (List.length
       (List.filter
          (fun (sp : Tracer.span) -> String.equal sp.Tracer.cat "sim")
          (Tracer.spans tracer)));
  Alcotest.(check int) "twins stored once" 1
    (List.assoc "stores" (Cache.counters cache));
  Alcotest.(check int) "every twin lookup counted" 2
    (List.assoc "misses" (Cache.counters cache))

(* A structurally equal copy of a registry workload travels explicitly
   but keys, and answers, exactly like the named original. *)
let test_registry_copy_shares_key () =
  let cache = Cache.create (temp_dir ()) in
  let key job = Cache.key_of_request cache (Wire.Compile job) in
  List.iter
    (fun (e : Registry.entry) ->
      let copy = registry_job ~workload:(deep_copy e) e in
      let name = registry_name e in
      Alcotest.(check bool) (name ^ " copy travels explicitly") true
        (Helpers.contains ~sub:"(workload explicit"
           (Wire.request_to_string (Wire.Compile copy)));
      Alcotest.(check bool) (name ^ " copy shares the named key") true
        (key copy = key (registry_job e)))
    Registry.all;
  let e = Option.get (Registry.find "sphot-1") in
  let frame job = Wire.batch_to_string [ Wire.Run { job; engine = Compiled } ] in
  let copy = frame (registry_job ~workload:(deep_copy e) e) in
  let server = Server.create ~cache () in
  let named = Server.handle_frame server (frame (registry_job e)) in
  let served = Server.handle_frame server copy in
  let fresh =
    Server.handle_frame
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      copy
  in
  (match Wire.responses_of_string named with
  | [ Wire.Run_result _ ] -> ()
  | _ -> Alcotest.failf "expected one run result: %s" named);
  Alcotest.(check string) "the copy is served the named bytes" named served;
  Alcotest.(check string) "a fresh copy computes the same bytes" fresh served;
  Alcotest.(check int) "the copy was a hit" 1
    (List.assoc "hits" (Cache.counters cache))

(* Rewrite the item list of every job (the list holding a workload
   field) in a request sexp. *)
let is_workload = function
  | F.Repro.List (F.Repro.Atom "workload" :: _) -> true
  | _ -> false

let rec edit_job f = function
  | F.Repro.List items when List.exists is_workload items -> F.Repro.List (f items)
  | F.Repro.List items -> F.Repro.List (List.map (edit_job f) items)
  | atom -> atom

let set_workload rest =
  List.map (fun item ->
      if is_workload item then F.Repro.List (F.Repro.Atom "workload" :: rest)
      else item)

let registry_atoms (e : Registry.entry) =
  match F.Repro.field_items "workload" (Wire.sexp_of_job (registry_job e)) with
  | [ registry; name; hex ] -> (registry, name, hex)
  | _ -> Alcotest.fail "expected (workload registry NAME MD5HEX)"

let test_bad_registry_names_fail_in_slot () =
  let e = Option.get (Registry.find "sphot-1") in
  let good = Wire.sexp_of_request (Wire.Run { job = registry_job e; engine = Compiled }) in
  let registry, name, hex = registry_atoms e in
  let unknown =
    edit_job (set_workload [ registry; F.Repro.Atom "no-such-kernel"; hex ]) good
  in
  let wrong_digest =
    edit_job
      (set_workload
         [ registry; name; F.Repro.Atom (Digest.to_hex (Digest.string "other data")) ])
      good
  in
  (* The envelopes are strict too: a job that repeats a field, and a
     request with a field no request kind has. *)
  let doubled =
    edit_job
      (fun items ->
        items @ [ F.Repro.List [ F.Repro.Atom "workload"; F.Repro.Atom "seed"; F.Repro.Atom "7" ] ])
      good
  in
  let stray =
    match good with
    | F.Repro.List items ->
      F.Repro.List (items @ [ F.Repro.List [ F.Repro.Atom "bogus"; F.Repro.Atom "1" ] ])
    | atom -> atom
  in
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let payload =
    F.Repro.canon
      (F.Repro.List [ F.Repro.Atom "batch"; good; unknown; wrong_digest; doubled; stray ])
  in
  let first = Server.handle_frame server payload in
  (match Wire.responses_of_string first with
  | [
   Wire.Run_result _;
   Wire.Error unknown_msg;
   Wire.Error digest_msg;
   Wire.Error doubled_msg;
   Wire.Error stray_msg;
  ] ->
    Alcotest.(check bool) ("names the unknown workload: " ^ unknown_msg) true
      (Helpers.contains ~sub:"no-such-kernel" unknown_msg);
    Alcotest.(check bool) ("names the digest: " ^ digest_msg) true
      (Helpers.contains ~sub:"digest" digest_msg);
    Alcotest.(check bool) ("names the repeated field: " ^ doubled_msg) true
      (Helpers.contains ~sub:"repeated job field" doubled_msg);
    Alcotest.(check bool) ("names the unknown field: " ^ stray_msg) true
      (Helpers.contains ~sub:"unknown request field" stray_msg)
  | _ -> Alcotest.failf "bad batch shape: %s" first);
  let second = Server.handle_frame server payload in
  Alcotest.(check string) "answered alike twice" first second;
  Alcotest.(check int) "only the good slot was stored" 1
    (List.assoc "stores" (Cache.counters cache));
  Alcotest.(check int) "one entry file" 1 (Cache.entries cache)

(* 500 seeded mutations of a registry batch frame: every frame is
   answered by a batch of as many slots as it parses into, or by one
   Error when it is no batch at all, and nothing raises. *)
let test_registry_frame_mutations () =
  let entry name = registry_job (Option.get (Registry.find name)) in
  let items =
    List.map Wire.sexp_of_request
      [
        Wire.Run { job = entry "sphot-1"; engine = Compiled };
        Wire.Compile (entry "umt2k-1");
        Wire.Compile (entry "umt2k-5");
      ]
  in
  let batch items = F.Repro.canon (F.Repro.List (F.Repro.Atom "batch" :: items)) in
  let base = batch items in
  let server = Server.create ~cache:(Cache.create (temp_dir ())) () in
  ignore (Server.handle_frame server base);
  let rng = F.Rng.create 19 in
  let edit_item k f =
    batch (List.mapi (fun i item -> if i = k then edit_job f item else item) items)
  in
  let edit f = edit_item (F.Rng.int_below rng (List.length items)) f in
  (* One frame per slot: rendering 10^5 digits per mutation would cost
     more than serving it. *)
  let huge_seed =
    Array.init (List.length items) (fun k ->
        edit_item k (set_workload [ F.Repro.Atom "seed"; F.Repro.Atom (String.make 100_000 '9') ]))
  in
  (* A byte-level mutation may break the frame; a structural edit keeps
     its three slots. *)
  let mutate () =
    match F.Rng.int_below rng 5 with
    | 0 -> (String.sub base 0 (F.Rng.int_below rng (String.length base)), None)
    | 1 ->
      let b = Bytes.of_string base in
      Bytes.set b (F.Rng.int_below rng (Bytes.length b)) (Char.chr (F.Rng.int_below rng 256));
      (Bytes.to_string b, None)
    | 2 ->
      ( edit (fun job ->
            List.map
              (function
                | F.Repro.List [ (F.Repro.Atom "workload" as w); registry; name; hex ] ->
                  F.Repro.List
                    (w :: registry :: F.Rng.choose rng [ [ hex; name ]; [ name ]; [ hex ] ])
                | item -> item)
              job),
        Some 3 )
    | 3 ->
      ( edit (fun job ->
            if F.Rng.bool rng then List.filter (fun item -> not (is_workload item)) job
            else
              List.concat_map
                (fun item -> if is_workload item then [ item; item ] else [ item ])
                job),
        Some 3 )
    | _ -> (huge_seed.(F.Rng.int_below rng (Array.length huge_seed)), Some 3)
  in
  let t0 = Unix.gettimeofday () in
  for i = 1 to 500 do
    let frame, slots = mutate () in
    let out =
      match Server.handle_frame server frame with
      | out -> out
      | exception e -> Alcotest.failf "mutation %d raised %s" i (Printexc.to_string e)
    in
    let slots =
      match slots with
      | Some _ -> slots
      | None -> (
        match F.Repro.parse_sexp frame with
        | F.Repro.List (F.Repro.Atom "batch" :: items) -> Some (List.length items)
        | _ | (exception F.Repro.Parse_error _) -> None)
    in
    match slots with
    | Some n ->
      Alcotest.(check int) (Printf.sprintf "mutation %d: one answer per slot" i)
        n
        (List.length (Wire.batch_items_of_string out))
    | None -> (
      match Wire.response_of_string out with
      | Wire.Error _ -> ()
      | _ -> Alcotest.failf "mutation %d: no batch, yet not one Error: %s" i out)
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) (Printf.sprintf "500 mutations in %.2f s (< 2 s)" elapsed) true
    (elapsed < 2.0)

let test_parallel_equals_serial () =
  let reqs = List.map Result.ok (batch_for [ 30; 31; 32; 33 ]) in
  let serial =
    Server.handle_requests
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  let pool = Finepar_exec.Pool.create ~domains:4 () in
  let parallel =
    Server.handle_requests
      (Server.create ~pool ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  Alcotest.(check (list string)) "-j1 and -j4 produce identical bytes" serial
    parallel

let test_corpus_parallel_equals_serial () =
  (* The whole regression corpus — which carries both queue-mode and
     shared-cache reproducers — replayed through the service on every
     engine: a 4-domain pool must produce the same bytes as -j1. *)
  let entries =
    List.map F.Corpus.load_file (F.Corpus.files "fuzz_corpus")
  in
  Alcotest.(check bool) "corpus present" true (List.length entries >= 5);
  let modes =
    List.sort_uniq compare
      (List.map
         (fun (e : F.Corpus.entry) ->
           e.F.Corpus.case.F.Gen.config.Finepar.Compiler.comm_mode)
         entries)
  in
  Alcotest.(check int) "corpus covers both comm modes" 2 (List.length modes);
  let reqs =
    List.concat_map
      (fun (e : F.Corpus.entry) ->
        List.map
          (fun engine ->
            Ok (Wire.Run { job = job_of_case e.F.Corpus.case; engine }))
          Finepar_machine.Engine.all)
      entries
  in
  let serial =
    Server.handle_requests
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  let pool = Finepar_exec.Pool.create ~domains:4 () in
  let parallel =
    Server.handle_requests
      (Server.create ~pool ~cache:(Cache.create (temp_dir ())) ())
      reqs
  in
  Alcotest.(check (list string))
    "corpus replay: -j1 and -j4 produce identical bytes" serial parallel

let test_errors_not_cached () =
  (* A workload that truncates one of the kernel's arrays to zero
     elements fails at evaluation: the response must be a deterministic
     Error, and must not be stored (a fix to the pipeline must not be
     masked by a cached failure). *)
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let entry = List.hd Finepar_kernels.Registry.all in
  let kernel = entry.Finepar_kernels.Registry.kernel in
  let broken =
    (List.hd kernel.Finepar_ir.Kernel.arrays).Finepar_ir.Kernel.a_name
  in
  let job =
    {
      Wire.kernel;
      config = Finepar.Compiler.default_config ();
      sequential = false;
      placement = F.Gen.Identity;
      workload = Wire.Explicit [ (broken, [||]) ];
      profile_counters = [];
    }
  in
  let req = [ Ok (Wire.Run { job; engine = Finepar_machine.Engine.Cycle }) ] in
  let first = Server.handle_requests server req in
  let second = Server.handle_requests server req in
  Alcotest.(check (list string)) "errors are deterministic" first second;
  (match List.map Wire.response_of_string first with
  | [ Wire.Error _ ] -> ()
  | _ -> Alcotest.fail "expected an Error response");
  Alcotest.(check int) "errors are never stored" 0
    (List.assoc "stores" (Cache.counters cache));
  Alcotest.(check int) "no entry files appear" 0 (Cache.entries cache)

let test_malformed_items_reported_in_slot () =
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let good = Wire.request_to_string (Wire.Ping) in
  (* A run naming the retired event engine fails in its own slot. *)
  let event_run =
    match Wire.sexp_of_request (Wire.Run { job = job_of_seed 1; engine = Cycle }) with
    | F.Repro.List items ->
      F.Repro.canon
        (F.Repro.List
           (List.map
              (function
                | F.Repro.List [ F.Repro.Atom "engine"; _ ] ->
                  F.Repro.List [ F.Repro.Atom "engine"; F.Repro.Atom "event" ]
                | item -> item)
              items))
    | F.Repro.Atom _ -> assert false
  in
  let payload =
    Printf.sprintf "(batch %s (request (kind bogus)) %s %s)" good event_run good
  in
  let out = Server.handle_frame server payload in
  match Wire.responses_of_string out with
  | [ Wire.Pong _; Wire.Error _; Wire.Error msg; Wire.Pong _ ] ->
    List.iter
      (fun name ->
        Alcotest.(check bool)
          (Printf.sprintf "event rejection names %s: %s" name msg)
          true
          (Helpers.contains ~sub:name msg))
      [ "event"; "cycle"; "compiled" ]
  | _ -> Alcotest.failf "bad batch shape: %s" out

(* The retired verify kind: [Job.compile] already runs the verifier, so
   a compile request answers what verify did.  A verify request in an
   old client's batch is an Error in its own slot; the run and compile
   slots around it are answered, and stored, as if it were absent. *)
let test_verify_kind_fails_in_slot () =
  let job = registry_job (Option.get (Registry.find "lammps-3")) in
  let run = Wire.Run { job; engine = Compiled } and compile = Wire.Compile job in
  let verify =
    F.Repro.List
      [
        F.Repro.Atom "request";
        F.Repro.List [ F.Repro.Atom "kind"; F.Repro.Atom "verify" ];
        Wire.sexp_of_job job;
      ]
  in
  let cache = Cache.create (temp_dir ()) in
  let server = Server.create ~cache () in
  let out =
    Server.handle_frame server
      (F.Repro.canon
         (F.Repro.List
            [
              F.Repro.Atom "batch";
              Wire.sexp_of_request run;
              verify;
              Wire.sexp_of_request compile;
            ]))
  in
  let alone =
    Server.handle_requests
      (Server.create ~cache:(Cache.create (temp_dir ())) ())
      [ Ok run; Ok compile ]
  in
  (match Wire.batch_items_of_string out with
  | [ r; v; c ] -> (
    Alcotest.(check (list string)) "run and compile answered as if alone" alone
      [ F.Repro.canon r; F.Repro.canon c ];
    match Wire.response_of_string (F.Repro.canon v) with
    | Wire.Error msg ->
      Alcotest.(check bool) ("names the verify kind: " ^ msg) true
        (Helpers.contains ~sub:"unknown request kind" msg
        && Helpers.contains ~sub:"verify" msg)
    | _ -> Alcotest.failf "verify slot answered: %s" out)
  | _ -> Alcotest.failf "bad batch shape: %s" out);
  Alcotest.(check int) "only run and compile stored" 2
    (List.assoc "stores" (Cache.counters cache))

let test_bad_frame_header_answered () =
  (* A header that is not a byte count in 0..max_frame gets one Error
     frame quoting it, after the frames before it were answered; nothing
     after it is read.  A long header is quoted by its first 64 bytes. *)
  let dir = temp_dir () in
  let ping = Wire.request_to_string Wire.Ping in
  let frame payload = Printf.sprintf "%d\n%s" (String.length payload) payload in
  List.iter
    (fun (header, quoted) ->
      let input = Filename.concat dir "in" and output = Filename.concat dir "out" in
      let oc = open_out_bin input in
      output_string oc (frame ping ^ header ^ "\n" ^ frame ping);
      close_out oc;
      let ic = open_in_bin input and oc = open_out_bin output in
      Server.serve_channels
        (Server.create ~cache:(Cache.create (Filename.concat dir "store")) ())
        ic oc;
      close_in ic;
      close_out oc;
      let ic = open_in_bin output in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let error =
        Wire.response_to_string
          (Wire.Error
             (Printf.sprintf
                "bad frame header %s: expected a byte count in 0..268435456"
                quoted))
      in
      Alcotest.(check string)
        (Printf.sprintf "header %s answered, then closed" quoted)
        (frame (Wire.response_to_string (Wire.Pong Version.code_version))
        ^ frame error)
        got)
    [
      ("12x", {|"12x"|});
      ("-1", {|"-1"|});
      (string_of_int (Server.max_frame + 1), {|"268435457"|});
      (String.make 100_000 '7', Printf.sprintf "%S (cut at 64 bytes)" (String.make 64 '7'));
    ]

(* ------------------------------------------------------------------ *)
(* Concurrent clients against one server.

   OCaml 5 forbids Unix.fork once domains have been spawned (earlier
   tests create pools), so the server and the client processes re-exec
   this binary via Unix.create_process (posix_spawn underneath) with a
   dispatch marker in argv, handled below before Alcotest ever parses
   the command line. *)

let spawn args =
  Unix.create_process Sys.executable_name
    (Array.append [| Sys.executable_name |] args)
    Unix.stdin Unix.stdout Unix.stderr

let client_requests = requests_of_seed 50

let () =
  (* Child modes; never returns for a child. *)
  if Array.length Sys.argv = 4 && Sys.argv.(1) = "--service-serve" then begin
    let cache = Cache.create Sys.argv.(3) in
    let server = Server.create ~cache () in
    Server.serve_socket server Sys.argv.(2);
    exit 0
  end;
  if Array.length Sys.argv = 4 && Sys.argv.(1) = "--service-client" then begin
    let got =
      String.concat "\n"
        (Client.exec_strings (Client.Socket Sys.argv.(2)) client_requests)
    in
    let ic = open_in_bin Sys.argv.(3) in
    let expected = really_input_string ic (in_channel_length ic) in
    close_in ic;
    exit (if String.equal got expected then 0 else 1)
  end

let test_concurrent_clients () =
  let dir = temp_dir () in
  let socket = Filename.concat dir "sock" in
  let server_pid =
    spawn [| "--service-serve"; socket; Filename.concat dir "store" |]
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] server_pid)
      with Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    (fun () ->
      let expected =
        Client.exec_strings ~attempts:100 (Client.Socket socket)
          client_requests
      in
      let expected_file = Filename.concat dir "expected" in
      let oc = open_out_bin expected_file in
      output_string oc (String.concat "\n" expected);
      close_out oc;
      (* Several client processes hammering the same server: everyone
         gets the same bytes (all of them from cache by now). *)
      let clients =
        List.init 4 (fun _ ->
            spawn [| "--service-client"; socket; expected_file |])
      in
      List.iter
        (fun pid ->
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _, _ -> Alcotest.fail "concurrent client saw different bytes")
        clients;
      (* One more from the parent, then orderly shutdown. *)
      (match Client.exec (Client.Socket socket) [ Wire.Ping ] with
      | [ Wire.Pong v ] ->
        Alcotest.(check string) "pong carries the code version"
          Version.code_version v
      | _ -> Alcotest.fail "bad ping response");
      (match Client.exec (Client.Socket socket) [ Wire.Shutdown ] with
      | [ Wire.Shutdown_ack ] -> ()
      | _ -> Alcotest.fail "bad shutdown response");
      ignore (Unix.waitpid [] server_pid);
      Alcotest.(check bool) "socket removed on exit" false
        (Sys.file_exists socket))

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "explicit workloads round-trip" `Quick
            test_registry_explicit_workload_roundtrip;
          Alcotest.test_case "registry workloads travel by name" `Quick
            test_registry_workloads_by_name;
          Alcotest.test_case "non-finite weights bit-exact" `Quick
            test_nonfinite_weights_roundtrip;
          Alcotest.test_case "quoted atoms round-trip" `Quick
            test_quoted_atoms_roundtrip;
          Alcotest.test_case "responses and reports round-trip" `Quick
            test_response_roundtrip_with_report;
        ] );
      ( "cache",
        [
          Alcotest.test_case "every key component matters" `Quick
            test_key_sensitivity;
          Alcotest.test_case "version bump invalidates" `Quick
            test_version_bump_invalidates;
          Alcotest.test_case "corruption is a miss, not a crash" `Quick
            test_corrupt_entries_are_misses;
          Alcotest.test_case "eviction respects max_entries" `Quick
            test_eviction_respects_max_entries;
        ] );
      ( "server",
        [
          Alcotest.test_case "cached equals fresh, byte for byte" `Quick
            test_cached_equals_fresh;
          Alcotest.test_case "a cycle answer is a compiled hit" `Quick
            test_engine_twins_share_entry;
          Alcotest.test_case "-j1 equals -j4, byte for byte" `Quick
            test_parallel_equals_serial;
          Alcotest.test_case "corpus replay -j1 equals -j4, both comm modes"
            `Quick test_corpus_parallel_equals_serial;
          Alcotest.test_case "errors deterministic, never cached" `Quick
            test_errors_not_cached;
          Alcotest.test_case "a registry copy keys and answers alike" `Quick
            test_registry_copy_shares_key;
          Alcotest.test_case "bad registry names fail in their slot" `Quick
            test_bad_registry_names_fail_in_slot;
          Alcotest.test_case "registry frames survive 500 mutations" `Quick
            test_registry_frame_mutations;
          Alcotest.test_case "malformed batch items fail in place" `Quick
            test_malformed_items_reported_in_slot;
          Alcotest.test_case "a verify request fails in its slot" `Quick
            test_verify_kind_fails_in_slot;
          Alcotest.test_case "a bad frame header gets an error frame" `Quick
            test_bad_frame_header_answered;
        ] );
      ( "socket",
        [
          Alcotest.test_case "concurrent clients, one server" `Quick
            test_concurrent_clients;
        ] );
    ]

(** Canonical wire format for the compile-and-simulate service.

    Everything on the wire is one s-expression rendered with
    {!Finepar_fuzz.Repro.canon}: single-line, one space between
    siblings, atoms quoted exactly when they need it, floats as [%h]
    hexadecimal literals.  Equal values therefore serialize to equal
    bytes — the property both the framing layer and the content-
    addressed cache digests rely on.  The kernel/config/value encodings
    are the fuzz reproducer's, reused verbatim; this module adds the
    request/response envelope and a bit-exact {!Finepar.Report.t}
    round-trip. *)

module R = Finepar_fuzz.Repro
module Gen = Finepar_fuzz.Gen
module Engine = Finepar_machine.Engine
module H = Finepar_telemetry.Histogram
module Registry = Finepar_kernels.Registry

open R

let err = R.parse_error

(* ------------------------------------------------------------------ *)
(* Jobs: what to compile, how to run it.                                *)

type workload_spec = Finepar.Job.workload =
  | Seeded of int
  | Explicit of Finepar_ir.Eval.workload

type job = Finepar.Job.t = {
  kernel : Finepar_ir.Kernel.t;
  config : Finepar.Compiler.config;
  sequential : bool;
  placement : Gen.placement;
  workload : workload_spec;
  profile_counters : (string * int * int) list;
}

type request =
  | Run of { job : job; engine : Engine.t }
  | Compile of job
  | Stats
  | Ping
  | Shutdown

type run_payload = {
  cycles : int;
  instrs : int;
  queues_used : int;
  load_counters : (string * int * int) list;
  result : Finepar_ir.Eval.result;
  report : Finepar.Report.t;
}

type response =
  | Run_result of run_payload
  | Compile_result of Finepar.Compiler.stats
  | Stats_result of (string * int) list
  | Pong of string
  | Shutdown_ack
  | Error of string

(* ------------------------------------------------------------------ *)
(* Config: the reproducer encoding plus the affinity weights it omits.  *)

let sexp_of_config (c : Finepar.Compiler.config) =
  let w = c.Finepar.Compiler.weights in
  let weights =
    List
      [
        Atom "weights";
        float_atom w.Finepar_partition.Affinity.w_dep;
        float_atom w.Finepar_partition.Affinity.w_time;
        float_atom w.Finepar_partition.Affinity.w_prox;
      ]
  in
  match R.sexp_of_config c with
  | List items -> List (items @ [ weights ])
  | Atom _ -> assert false

let float_of s =
  match float_of_string_opt (atom s) with
  | Some f -> f
  | None -> err "bad float literal %S" (atom s)

let config_of_sexp s =
  (* [weights] is the one field this format layers onto the reproducer
     config encoding; everything else unknown is still rejected. *)
  let base = R.config_of_sexp ~extra:[ "weights" ] s in
  match field_items "weights" s with
  | [ d; t; p ] ->
    {
      base with
      Finepar.Compiler.weights =
        {
          Finepar_partition.Affinity.w_dep = float_of d;
          w_time = float_of t;
          w_prox = float_of p;
        };
    }
  | _ -> err "weights expects three values"

(* ------------------------------------------------------------------ *)
(* Workloads, counters, jobs.                                           *)

(* A float's digest bits.  The wire's [%h] text drops a NaN's payload
   but keeps its sign ("nan", "-nan"), so every NaN digests as the quiet
   NaN of its sign: a job and its wire round-trip share a key.  -0.0
   keeps its sign bit and stays distinct from 0.0. *)
let quiet_nan = Float.of_string "nan"

let float_bits f =
  Int64.bits_of_float (if Float.is_nan f then Float.copy_sign quiet_nan f else f)

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

(* The MD5 of a workload's values in a length-prefixed binary encoding
   rather than their rendered text: per array the name's length, the
   name, the value count, then per value a type tag and eight bytes. *)
let values_digest arrays =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, vals) ->
      add_int buf (String.length name);
      Buffer.add_string buf name;
      add_int buf (Array.length vals);
      Array.iter
        (function
          | Finepar_ir.Types.VInt i ->
            Buffer.add_char buf 'i';
            add_int buf i
          | Finepar_ir.Types.VFloat f ->
            Buffer.add_char buf 'f';
            Buffer.add_int64_le buf (float_bits f))
        vals)
    arrays;
  Digest.string (Buffer.contents buf)

(* A registry entry's own workload value travels by name, and its digest
   is computed once per process (nothing mutates it: the evaluator and
   the simulator copy their initial arrays).  The memo is an atomic rather than a
   [Lazy]: domains racing on an empty cell compute the same bytes, where
   forcing one [Lazy] from two domains raises. *)
let registry_digests =
  List.map (fun (e : Registry.entry) -> (e, Atomic.make None)) Registry.all

let entry_digest ((e : Registry.entry), memo) =
  match Atomic.get memo with
  | Some d -> d
  | None ->
    let d = values_digest e.workload in
    Atomic.set memo (Some d);
    d

(* Physical identity, not equality: only the registry's own value is
   known to be the one the peer holds under that name. *)
let registry_entry arrays =
  List.find_opt
    (fun ((e : Registry.entry), _) -> e.workload == arrays)
    registry_digests

let workload_digest arrays =
  match registry_entry arrays with
  | Some entry -> entry_digest entry
  | None -> values_digest arrays

let sexp_of_workload = function
  | Seeded seed -> List [ Atom "workload"; Atom "seed"; Atom (string_of_int seed) ]
  | Explicit arrays -> (
    match registry_entry arrays with
    | Some ((e, _) as entry) ->
      List
        [
          Atom "workload";
          Atom "registry";
          Atom e.kernel.Finepar_ir.Kernel.name;
          Atom (Digest.to_hex (entry_digest entry));
        ]
    | None ->
      List
        (Atom "workload" :: Atom "explicit"
        :: List.map
             (fun (name, vals) ->
               List (Atom name :: List.map sexp_of_value (Array.to_list vals)))
             arrays))

let workload_of_sexp s =
  match field_items "workload" s with
  | [ Atom "seed"; n ] -> Seeded (int_of n)
  | [ Atom "registry"; Atom name; Atom hex ] -> (
    match Registry.find name with
    | None -> err "unknown registry workload %S" name
    | Some e ->
      (* The digest keeps two builds from answering for different data
         under one name. *)
      let ours = Digest.to_hex (workload_digest e.workload) in
      if not (String.equal hex ours) then
        err "registry workload %S: digest %S, this build has %s" name hex ours;
      Explicit e.workload)
  | Atom "explicit" :: arrays ->
    Explicit
      (List.map
         (function
           | List (Atom name :: vals) ->
             (name, Array.of_list (List.map value_of_sexp vals))
           | _ -> err "bad workload array")
         arrays)
  | _ -> err "bad workload"

let sexp_of_counters tag counters =
  List
    (Atom tag
    :: List.map
         (fun (name, a, b) ->
           List [ Atom name; Atom (string_of_int a); Atom (string_of_int b) ])
         counters)

let counters_of_sexp tag s =
  List.map
    (function
      | List [ Atom name; a; b ] -> (name, int_of a, int_of b)
      | _ -> err "bad counter in %s" tag)
    (field_items tag s)

let sexp_of_job (j : job) =
  List
    [
      Atom "job";
      R.sexp_of_kernel j.kernel;
      sexp_of_config j.config;
      List [ Atom "sequential"; Atom (string_of_bool j.sequential) ];
      List [ Atom "placement"; Atom (Gen.placement_name j.placement) ];
      sexp_of_workload j.workload;
      sexp_of_counters "profile_counters" j.profile_counters;
    ]

let job_fields =
  [ "kernel"; "config"; "sequential"; "placement"; "workload"; "profile_counters" ]

let job_of_sexp s =
  check_fields ~what:"job" ~known:job_fields s;
  {
    kernel = R.kernel_of_sexp (section "kernel" s);
    config = config_of_sexp (section "config" s);
    sequential = bool_of (field "sequential" s);
    placement =
      (let name = atom (field "placement" s) in
       match Gen.placement_of_name name with
       | Some p -> p
       | None -> err "unknown placement %S" name);
    workload = workload_of_sexp s;
    profile_counters = counters_of_sexp "profile_counters" s;
  }

(* ------------------------------------------------------------------ *)
(* Requests.                                                            *)

let sexp_of_request = function
  | Run { job; engine } ->
    List
      [
        Atom "request";
        List [ Atom "kind"; Atom "run" ];
        List [ Atom "engine"; Atom (Engine.to_string engine) ];
        sexp_of_job job;
      ]
  | Compile job ->
    List [ Atom "request"; List [ Atom "kind"; Atom "compile" ]; sexp_of_job job ]
  | Stats -> List [ Atom "request"; List [ Atom "kind"; Atom "stats" ] ]
  | Ping -> List [ Atom "request"; List [ Atom "kind"; Atom "ping" ] ]
  | Shutdown -> List [ Atom "request"; List [ Atom "kind"; Atom "shutdown" ] ]

let request_of_sexp s =
  match s with
  | List (Atom "request" :: _) -> (
    let fields known = check_fields ~what:"request" s ~known in
    match atom (field "kind" s) with
    | "run" ->
      fields [ "kind"; "engine"; "job" ];
      let engine_name = atom (field "engine" s) in
      let engine =
        match Engine.of_string engine_name with
        | Some e -> e
        | None ->
          err "unknown engine %S (expected %s)" engine_name
            (String.concat ", " (List.map Engine.to_string Engine.all))
      in
      Run { job = job_of_sexp (section "job" s); engine }
    | "compile" ->
      fields [ "kind"; "job" ];
      Compile (job_of_sexp (section "job" s))
    | "stats" ->
      fields [ "kind" ];
      Stats
    | "ping" ->
      fields [ "kind" ];
      Ping
    | "shutdown" ->
      fields [ "kind" ];
      Shutdown
    | k -> err "unknown request kind %S" k)
  | _ -> err "expected (request ...)"

let job_of_request = function
  | Run { job; _ } | Compile job -> Some job
  | Stats | Ping | Shutdown -> None

(* The cache key's kind component.  The engine is deliberately absent:
   every engine answers a run with the same bytes, so it only says how
   to compute a miss. *)
let kind_slot = function
  | Run _ -> Some "run"
  | Compile _ -> Some "compile"
  | Stats | Ping | Shutdown -> None

(* Digest inputs.  The kernel digest covers the program text alone; the
   config digest covers everything else that can change a response for
   the same kernel: config (incl. machine geometry and weights),
   sequential flag, placement, profile feedback, workload. *)
let kernel_canon (j : job) = canon (R.sexp_of_kernel j.kernel)

(* The workload enters as a tag and the seed, or as a tag and the MD5 of
   its values: O(1) per request for a registry workload, whose digest is
   memoized, and the same bytes for any structurally equal copy. *)
let add_workload buf = function
  | Seeded seed ->
    Buffer.add_char buf 'S';
    add_int buf seed
  | Explicit arrays ->
    Buffer.add_char buf 'E';
    Buffer.add_string buf (workload_digest arrays)

let config_digest_input (j : job) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (canon
       (List
          [
            Atom "jobcfg";
            sexp_of_config j.config;
            List [ Atom "sequential"; Atom (string_of_bool j.sequential) ];
            List [ Atom "placement"; Atom (Gen.placement_name j.placement) ];
            sexp_of_counters "profile_counters" j.profile_counters;
          ]));
  add_workload buf j.workload;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Histograms, reports.                                                 *)

let sexp_of_ints tag ints =
  List (Atom tag :: List.map (fun i -> Atom (string_of_int i)) ints)

let ints_of tag s = List.map int_of (field_items tag s)

let sexp_of_opt_int = function
  | None -> Atom "none"
  | Some i -> Atom (string_of_int i)

let opt_int_of s =
  match atom s with "none" -> None | a -> Some (int_of (Atom a))

let sexp_of_hist h =
  let bounds, counts = List.split (H.buckets h) in
  (* The overflow bucket's sentinel bound (max_int) is implicit. *)
  let bounds = List.filter (fun b -> b <> max_int) bounds in
  List
    [
      Atom "hist";
      sexp_of_ints "bounds" bounds;
      sexp_of_ints "counts" counts;
      List [ Atom "sum"; Atom (string_of_int (H.sum h)) ];
      List [ Atom "min"; sexp_of_opt_int (H.min_value h) ];
      List [ Atom "max"; sexp_of_opt_int (H.max_value h) ];
    ]

let hist_of_sexp s =
  H.restore
    ~bounds:(Array.of_list (ints_of "bounds" s))
    ~counts:(Array.of_list (ints_of "counts" s))
    ~sum:(int_of (field "sum" s))
    ~min_value:(opt_int_of (field "min" s))
    ~max_value:(opt_int_of (field "max" s))

let sexp_of_report (t : Finepar.Report.t) =
  let open Finepar.Report in
  List
    [
      Atom "report";
      List [ Atom "kernel"; Atom t.kernel ];
      List [ Atom "cycles"; Atom (string_of_int t.cycles) ];
      List [ Atom "n_cores"; Atom (string_of_int t.n_cores) ];
      List [ Atom "total_core_cycles"; Atom (string_of_int t.total_core_cycles) ];
      List [ Atom "wait_cycles"; Atom (string_of_int t.wait_cycles) ];
      List [ Atom "instrs"; Atom (string_of_int t.instrs) ];
      List [ Atom "dropped_events"; Atom (string_of_int t.dropped_events) ];
      List
        (Atom "cores"
        :: List.map
             (fun (r : core_row) ->
               List
                 [
                   Atom (string_of_int r.core);
                   Atom (string_of_int r.instrs);
                   Atom (string_of_int r.stall_operand);
                   Atom (string_of_int r.stall_queue_full);
                   Atom (string_of_int r.stall_queue_empty);
                   Atom (string_of_int r.branch_wait);
                   Atom (string_of_int r.smt_wait);
                   Atom (string_of_int r.idle_after_halt);
                   Atom (string_of_int r.dual_issued);
                   sexp_of_hist r.stall_episodes;
                 ])
             t.cores);
      List
        (Atom "queues"
        :: List.map
             (fun (q : queue_row) ->
               List
                 [
                   Atom (string_of_int q.queue);
                   Atom (string_of_int q.src);
                   Atom (string_of_int q.dst);
                   Atom (string_of_int q.transfers);
                   Atom (string_of_int q.max_occupancy);
                   sexp_of_hist q.occupancy;
                 ])
             t.queues);
      List
        (Atom "fibers"
        :: List.map
             (fun (f : fiber_row) ->
               List
                 [
                   Atom (string_of_int f.fiber);
                   Atom (string_of_int f.partition);
                   Atom (string_of_int f.line);
                   Atom (string_of_int f.issue);
                   Atom (string_of_int f.stall);
                 ])
             t.fibers);
    ]

let report_of_sexp s : Finepar.Report.t =
  let open Finepar.Report in
  let cores =
    List.map
      (function
        | List [ c; i; so; sqf; sqe; bw; sw; ih; di; h ] ->
          {
            core = int_of c;
            instrs = int_of i;
            stall_operand = int_of so;
            stall_queue_full = int_of sqf;
            stall_queue_empty = int_of sqe;
            branch_wait = int_of bw;
            smt_wait = int_of sw;
            idle_after_halt = int_of ih;
            dual_issued = int_of di;
            stall_episodes = hist_of_sexp h;
          }
        | _ -> err "bad core row")
      (field_items "cores" s)
  in
  let queues =
    List.map
      (function
        | List [ q; src; dst; tr; mo; h ] ->
          {
            queue = int_of q;
            src = int_of src;
            dst = int_of dst;
            transfers = int_of tr;
            max_occupancy = int_of mo;
            occupancy = hist_of_sexp h;
          }
        | _ -> err "bad queue row")
      (field_items "queues" s)
  in
  let fibers =
    List.map
      (function
        | List [ f; p; l; i; st ] ->
          {
            fiber = int_of f;
            partition = int_of p;
            line = int_of l;
            issue = int_of i;
            stall = int_of st;
          }
        | _ -> err "bad fiber row")
      (field_items "fibers" s)
  in
  {
    kernel = atom (field "kernel" s);
    cycles = int_of (field "cycles" s);
    n_cores = int_of (field "n_cores" s);
    total_core_cycles = int_of (field "total_core_cycles" s);
    wait_cycles = int_of (field "wait_cycles" s);
    instrs = int_of (field "instrs" s);
    cores;
    queues;
    fibers;
    dropped_events = int_of (field "dropped_events" s);
  }

(* ------------------------------------------------------------------ *)
(* Evaluator results, compiler stats.                                   *)

let sexp_of_result (r : Finepar_ir.Eval.result) =
  List
    [
      Atom "result";
      List
        (Atom "live_out"
        :: List.map
             (fun (name, v) -> List [ Atom name; sexp_of_value v ])
             r.Finepar_ir.Eval.live_out);
      List
        (Atom "arrays_out"
        :: List.map
             (fun (name, vals) ->
               List (Atom name :: List.map sexp_of_value (Array.to_list vals)))
             r.Finepar_ir.Eval.arrays_out);
    ]

let result_of_sexp s =
  {
    Finepar_ir.Eval.live_out =
      List.map
        (function
          | List [ Atom name; v ] -> (name, value_of_sexp v)
          | _ -> err "bad live_out binding")
        (field_items "live_out" s);
    arrays_out =
      List.map
        (function
          | List (Atom name :: vals) ->
            (name, Array.of_list (List.map value_of_sexp vals))
          | _ -> err "bad arrays_out binding")
        (field_items "arrays_out" s);
  }

let sexp_of_stats (st : Finepar.Compiler.stats) =
  let open Finepar.Compiler in
  List
    [
      Atom "stats";
      List [ Atom "initial_fibers"; Atom (string_of_int st.initial_fibers) ];
      List [ Atom "data_deps"; Atom (string_of_int st.data_deps) ];
      List [ Atom "load_balance"; float_atom st.load_balance ];
      List [ Atom "com_ops"; Atom (string_of_int st.com_ops) ];
      List
        [ Atom "queue_pairs_static"; Atom (string_of_int st.queue_pairs_static) ];
      List [ Atom "n_partitions"; Atom (string_of_int st.n_partitions) ];
      List [ Atom "merge_steps"; Atom (string_of_int st.merge_steps) ];
      List [ Atom "speculated_ifs"; Atom (string_of_int st.speculated_ifs) ];
    ]

let stats_of_sexp s =
  {
    Finepar.Compiler.initial_fibers = int_of (field "initial_fibers" s);
    data_deps = int_of (field "data_deps" s);
    load_balance = float_of (field "load_balance" s);
    com_ops = int_of (field "com_ops" s);
    queue_pairs_static = int_of (field "queue_pairs_static" s);
    n_partitions = int_of (field "n_partitions" s);
    merge_steps = int_of (field "merge_steps" s);
    speculated_ifs = int_of (field "speculated_ifs" s);
  }

(* ------------------------------------------------------------------ *)
(* Responses.                                                           *)

let sexp_of_response = function
  | Run_result p ->
    List
      [
        Atom "response";
        List [ Atom "kind"; Atom "run" ];
        List [ Atom "cycles"; Atom (string_of_int p.cycles) ];
        List [ Atom "instrs"; Atom (string_of_int p.instrs) ];
        List [ Atom "queues_used"; Atom (string_of_int p.queues_used) ];
        sexp_of_counters "load_counters" p.load_counters;
        sexp_of_result p.result;
        sexp_of_report p.report;
      ]
  | Compile_result st ->
    List [ Atom "response"; List [ Atom "kind"; Atom "compile" ]; sexp_of_stats st ]
  | Stats_result counters ->
    List
      [
        Atom "response";
        List [ Atom "kind"; Atom "stats" ];
        List
          (Atom "counters"
          :: List.map
               (fun (name, v) -> List [ Atom name; Atom (string_of_int v) ])
               counters);
      ]
  | Pong version ->
    List
      [
        Atom "response";
        List [ Atom "kind"; Atom "pong" ];
        List [ Atom "version"; Atom version ];
      ]
  | Shutdown_ack ->
    List [ Atom "response"; List [ Atom "kind"; Atom "shutdown" ] ]
  | Error message ->
    List
      [
        Atom "response";
        List [ Atom "kind"; Atom "error" ];
        List [ Atom "message"; Atom message ];
      ]

let response_of_sexp s =
  match s with
  | List (Atom "response" :: _) -> (
    match atom (field "kind" s) with
    | "run" ->
      Run_result
        {
          cycles = int_of (field "cycles" s);
          instrs = int_of (field "instrs" s);
          queues_used = int_of (field "queues_used" s);
          load_counters = counters_of_sexp "load_counters" s;
          result = result_of_sexp (section "result" s);
          report = report_of_sexp (section "report" s);
        }
    | "compile" -> Compile_result (stats_of_sexp (section "stats" s))
    | "stats" ->
      Stats_result
        (List.map
           (function
             | List [ Atom name; v ] -> (name, int_of v)
             | _ -> err "bad stats counter")
           (field_items "counters" s))
    | "pong" -> Pong (atom (field "version" s))
    | "shutdown" -> Shutdown_ack
    | "error" -> Error (atom (field "message" s))
    | k -> err "unknown response kind %S" k)
  | _ -> err "expected (response ...)"

(* ------------------------------------------------------------------ *)
(* Strings and batches.                                                 *)

let request_to_string r = canon (sexp_of_request r)
let request_of_string s = request_of_sexp (parse_sexp s)
let response_to_string r = canon (sexp_of_response r)
let response_of_string s = response_of_sexp (parse_sexp s)

let batch_of_items items = canon (List (Atom "batch" :: items))

let batch_to_string reqs = batch_of_items (List.map sexp_of_request reqs)

let batch_items_of_string s =
  match parse_sexp s with
  | List (Atom "batch" :: items) -> items
  | _ -> err "expected (batch ...)"

let requests_of_string s = List.map request_of_sexp (batch_items_of_string s)
let responses_of_string s = List.map response_of_sexp (batch_items_of_string s)

(* Reassemble a response batch from already-canonical per-response
   strings without re-rendering, so cached bytes pass through
   untouched. *)
let batch_of_response_strings strs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "(batch";
  List.iter
    (fun s ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf s)
    strs;
  Buffer.add_char buf ')';
  Buffer.contents buf

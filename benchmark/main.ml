(* The end-to-end benchmark of the finepar stack: compiler, simulator,
   compile-and-simulate service and autotune search, with a per-layer
   ledger of where the host time goes.

   One process runs one named workload as a closed loop: one in-process
   caller, zero think time, the next operation starts when the previous
   one returns (the way [--via] clients wait for their replies).  All
   work runs on the calling domain -- no [Exec.Pool] -- so on a small
   host the numbers measure the program, not the scheduler.  The
   benchmark times only calls into public functions ([Runner.run],
   [Server.handle_frame], [Search.run], ...) and builds every input from
   [--seed] through [Finepar_fuzz.Rng], whose splitmix64 stream does not
   depend on the OCaml version the way [Stdlib.Random] does.

     main.exe run --workload W --seed N --seconds S --trace 0|1
              [--record FILE] [--commit SHA] [--trace-out FILE]
              [--baseline FILE] [--work-dir DIR]
     main.exe validate [--spec FILE] [--baseline FILE] [--work-dir DIR]
     main.exe compare DIR_A DIR_B [--spec FILE]

   [run] prints a human-readable report on stderr and, as the last line
   of stdout, one JSON object: {correct, attempted, failed, metrics}.
   With [--trace 0] the metrics are the end-to-end set, with [--trace 1]
   the per-layer set (see README.md for both dictionaries). *)

open Finepar
module J = Finepar_telemetry.Json
module Tracer = Finepar_telemetry.Tracer
module Chrome_trace = Finepar_telemetry.Chrome_trace
module Rng = Finepar_fuzz.Rng
module Gen = Finepar_fuzz.Gen
module Repro = Finepar_fuzz.Repro
module Registry = Finepar_kernels.Registry
module Workload = Finepar_kernels.Workload
module Config = Finepar_machine.Config
module Engine = Finepar_machine.Engine
module Sim = Finepar_machine.Sim
module Program = Finepar_machine.Program
module Profile = Finepar_analysis.Profile
module Lower = Finepar_codegen.Lower
module Comm = Finepar_transform.Comm
module Eval = Finepar_ir.Eval
module Wire = Finepar_service.Wire
module Cache = Finepar_service.Cache
module Server = Finepar_service.Server
module Search = Finepar_tune.Search
module Service_eval = Finepar_tune.Service_eval

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* First and third quartiles exactly as Python's
   [statistics.quantiles(values, n=4)] computes them (its default
   "exclusive" method), so the spreads reported here are the ones the
   acceptance rule uses. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v)
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let rel_spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

(* The same fold as [Experiments.mean], so means over the registry
   reproduce the baseline's floats bit for bit. *)
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
let sum xs = List.fold_left ( +. ) 0.0 xs

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int_below rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Rounds, probes and the simulated-model counters.                     *)

(* Simulated counters: identical in every round of a run and under any
   change that only makes the host faster. *)
let model_names =
  [
    ("cycles", "cycle");
    ("instrs", "instr");
    ("dual_issued", "instr");
    ("stall_operand", "cycle");
    ("stall_queue_empty", "cycle");
    ("stall_queue_full", "cycle");
    ("branch_wait", "cycle");
    ("smt_wait", "cycle");
    ("idle_after_halt", "cycle");
    ("transfers", "count");
  ]

let model_of_report (r : Report.t) =
  let cores f =
    List.fold_left (fun acc (c : Report.core_row) -> acc + f c) 0 r.Report.cores
  in
  [|
    r.Report.cycles;
    r.Report.instrs;
    cores (fun c -> c.Report.dual_issued);
    cores (fun c -> c.Report.stall_operand);
    cores (fun c -> c.Report.stall_queue_empty);
    cores (fun c -> c.Report.stall_queue_full);
    cores (fun c -> c.Report.branch_wait);
    cores (fun c -> c.Report.smt_wait);
    cores (fun c -> c.Report.idle_after_halt);
    List.fold_left
      (fun acc (q : Report.queue_row) -> acc + q.Report.transfers)
      0 r.Report.queues;
  |]

(* One round is a fixed amount of work, so rounds of a run are
   comparable and every simulated count repeats exactly. *)
type round = {
  mutable ops : float list;  (** host seconds of each timed op *)
  mutable outside : float;
      (** program seconds spent between ops (the search's own work) *)
  mutable failed : int;
  model : int array;  (** [model_names] totals; cycles first *)
  mutable gc : float array;  (** minor, major collections, promoted MB *)
}

let new_round () =
  {
    ops = [];
    outside = 0.;
    failed = 0;
    model = Array.make (List.length model_names) 0;
    gc = [||];
  }

let wall r = sum r.ops +. r.outside
let cycles r = r.model.(0)
let add_counts acc counts = Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) counts

let fail r what =
  r.failed <- r.failed + 1;
  Printf.eprintf "FAILED: %s\n%!" what

(* Every timed op is one span, so the program's own pass, [sim:*] and
   [specialize] spans nest under it in the traced run. *)
let op f = Tracer.with_span ~cat:"benchmark" "op" f

(* Isolated timings of the layers that have no span inside the program:
   the layer's public function called again, outside the timed op, on
   the same inputs.  Only the traced run makes them. *)
type probe = {
  secs : (string, float) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
}

let new_probe () = { secs = Hashtbl.create 16; calls = Hashtbl.create 16 }
let probe_secs p layer = Option.value ~default:0. (Hashtbl.find_opt p.secs layer)
let probe_calls p layer = Option.value ~default:0 (Hashtbl.find_opt p.calls layer)

let isolate p layer f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  Hashtbl.replace p.secs layer (dt +. probe_secs p layer);
  Hashtbl.replace p.calls layer (1 + probe_calls p layer);
  r

let untraced f =
  match Tracer.active () with
  | None -> f ()
  | Some t ->
    Tracer.uninstall ();
    Fun.protect ~finally:(fun () -> Tracer.install t) f

let workload_of (job : Wire.job) =
  match job.Wire.workload with
  | Wire.Seeded seed -> Workload.default ~seed job.Wire.kernel
  | Wire.Explicit w -> w

(* The two layers [Runner.run] has no span for: simulator construction
   and the reference check. *)
let probe_run p ?core_map ~workload (c : Compiler.compiled) =
  ignore
    (isolate p "sim_create" (fun () ->
         Sim.create ?core_map ~config:c.Compiler.config.Compiler.machine
           ~initial:workload c.Compiler.code.Lower.program));
  ignore
    (isolate p "check" (fun () -> Eval.run_result ~workload c.Compiler.source))

(* [probe_run] for a job the service or the search evaluator ran: the
   job is compiled again, untraced and untimed, for its program. *)
let probe_job p (job : Wire.job) =
  let compiled =
    untraced (fun () ->
        let config =
          {
            job.Wire.config with
            Compiler.profile = Profile.of_counters job.Wire.profile_counters;
          }
        in
        if job.Wire.sequential then
          Compiler.compile_sequential ~machine:config.Compiler.machine
            job.Wire.kernel
        else Compiler.compile config job.Wire.kernel)
  in
  let cores = Array.length compiled.Compiler.code.Lower.program.Program.cores in
  probe_run p ~core_map:(Gen.materialize job.Wire.placement cores)
    ~workload:(workload_of job) compiled

(* What a workload reports once its rounds are done. *)
type summary = {
  speedup : (float * float) option;
      (** mean 4-core single-issue speedup over the 18 registry kernels,
          and its mean absolute error against Table III; [None] when a
          partial round did not produce all 18 *)
  extra : (string * float) list;  (** workload-specific per-layer values *)
}

type instance = {
  round : limit:int -> probe option -> round;
      (** one round; [limit] caps the ops (the validate smoke test) *)
  finish : unit -> summary;
  close : unit -> unit;
}

let machine_of_width width = { Config.default with Config.issue_width = width }

let speedup_summary pairs =
  ( mean (List.map (fun (seq, par, _) -> float_of_int seq /. float_of_int par) pairs),
    mean
      (List.map
         (fun (seq, par, paper) ->
           Float.abs ((float_of_int seq /. float_of_int par) -. paper))
         pairs) )

(* ------------------------------------------------------------------ *)
(* sim-queues / sim-shared: the registry jobs run over and over.        *)

type sim_job = {
  entry : Registry.entry;
  cores : int;
  width : int;
  compiled : Compiler.compiled;
  seq_cycles : int;
  mutable par_cycles : int option;  (** first observed; later must match *)
}

(* The sequential baseline of a registry kernel: its cycles are every
   speedup's numerator and its load counters the parallel compilations'
   profile feedback, as in [Runner.speedup]. *)
let sequential_run machine (e : Registry.entry) =
  Runner.run ~workload:e.Registry.workload ~engine:Engine.Compiled
    (Compiler.compile_sequential ~machine e.Registry.kernel)

(* The jobs of one kernel at one issue width. *)
let registry_jobs ~mode ~width (e : Registry.entry) =
  let machine = machine_of_width width in
  let seq = sequential_run machine e in
  let profile = Profile.of_counters seq.Runner.load_counters in
  List.map
    (fun cores ->
      let config =
        {
          (Compiler.default_config ~cores ()) with
          Compiler.machine;
          profile;
          comm_mode = mode;
        }
      in
      {
        entry = e;
        cores;
        width;
        compiled = Compiler.compile config e.Registry.kernel;
        seq_cycles = seq.Runner.cycles;
        par_cycles = None;
      })
    [ 2; 4 ]

let run_sim_job job =
  Runner.run ~check:true ~workload:job.entry.Registry.workload
    ~engine:Engine.Compiled job.compiled

let sim_setup mode rng =
  let jobs =
    Array.of_list
      (List.concat_map
         (fun e ->
           List.concat_map (fun width -> registry_jobs ~mode ~width e) [ 1; 2 ])
         Registry.all)
  in
  let order = Array.init (Array.length jobs) Fun.id in
  let round ~limit probe =
    let r = new_round () in
    shuffle rng order;
    Array.iteri
      (fun i j ->
        if i < limit then begin
          let job = jobs.(j) in
          let t0 = now () in
          let res =
            match op (fun () -> run_sim_job job) with
            | run -> Ok run
            | exception e -> Error e
          in
          r.ops <- (now () -. t0) :: r.ops;
          let name = job.entry.Registry.kernel.Finepar_ir.Kernel.name in
          match res with
          | Error e -> fail r (name ^ ": " ^ Printexc.to_string e)
          | Ok run -> (
            add_counts r.model (model_of_report run.Runner.telemetry);
            (match job.par_cycles with
            | None -> job.par_cycles <- Some run.Runner.cycles
            | Some c when c = run.Runner.cycles -> ()
            | Some c ->
              fail r
                (Printf.sprintf "%s: %d cycles, earlier rounds %d" name
                   run.Runner.cycles c));
            Option.iter
              (fun p -> probe_run p ~workload:job.entry.Registry.workload job.compiled)
              probe)
        end)
      order;
    r
  in
  let finish () =
    (* A partial (validate) round leaves jobs unobserved; run those. *)
    let pairs =
      Array.to_list jobs
      |> List.filter (fun j -> j.cores = 4 && j.width = 1)
      |> List.map (fun j ->
             let par =
               match j.par_cycles with
               | Some c -> c
               | None -> (run_sim_job j).Runner.cycles
             in
             (j.seq_cycles, par, j.entry.Registry.paper.Registry.p_speedup4))
    in
    { speedup = Some (speedup_summary pairs); extra = [] }
  in
  { round; finish; close = ignore }

(* ------------------------------------------------------------------ *)
(* service-via: the frames the repository's [--via] clients send.      *)

(* [finepar sweep --via -k K] at its defaults (4 cores, queue length 20,
   [Engine.default]): per transfer latency, a one-request frame for the
   sequential run, then one for the parallel run carrying the sequential
   run's load counters as profile feedback ([speedup_via] in the CLI). *)
let sweep_latencies = [ 5; 10; 20; 50; 100 ]

(* The search ci.yml sends through one store twice, cold then warm:
   [autotune --search --scope=registry --engine=compiled --generations=1
   --budget=12].  It sends one batch frame of sequential references, then
   one batch frame per generation. *)
let search_params = { Search.default_params with Search.generations = 1; budget = 12 }

(* A frame as sent, with the requests it was rendered from. *)
type frame = { reqs : Wire.request list; frame : string }

let frame_of reqs = { reqs; frame = Wire.batch_to_string reqs }

type chain = {
  c_entry : Registry.entry;
  c_latency : int;
  c_counters : (string * int * int) list;  (** the sequential run's *)
  c_seq : frame;
  c_par : frame;
}

(* The par frame needs the seq answer's load counters; set-up takes them
   from a direct sequential run, and round 1 checks the service's seq
   answer against them. *)
let sweep_chain (e : Registry.entry) latency =
  let machine = { Config.default with Config.transfer_latency = latency } in
  let config = { (Compiler.default_config ()) with Compiler.machine } in
  let counters = (sequential_run machine e).Runner.load_counters in
  let frame sequential profile_counters =
    let job =
      {
        Wire.kernel = e.Registry.kernel;
        config;
        sequential;
        placement = Gen.Identity;
        workload = Wire.Explicit e.Registry.workload;
        profile_counters;
      }
    in
    frame_of [ Wire.Run { job; engine = Engine.default } ]
  in
  {
    c_entry = e;
    c_latency = latency;
    c_counters = counters;
    c_seq = frame true [];
    c_par = frame false counters;
  }

(* Traced runs only: the server's lookups for one frame, repeated through
   a second handle on the same store before the frame is sent, so the
   server's own counters stay untouched. *)
let probe_lookup p shadow frame =
  let reqs = isolate p "wire_decode" (fun () -> Wire.requests_of_string frame) in
  List.map
    (fun req ->
      let key =
        isolate p "cache_key" (fun () -> Option.get (Cache.key_of_request shadow req))
      in
      (req, key, isolate p "store_read" (fun () -> Cache.find shadow key) <> None))
    reqs

(* ... and for each request the lookup missed, the encode and store that
   follow the computation, plus simulator construction and the
   reference check. *)
let probe_misses p shadow lookups resp =
  List.iter2
    (fun (req, key, hit) v ->
      if not hit then begin
        let body = isolate p "wire_encode" (fun () -> Wire.response_to_string v) in
        isolate p "store_write" (fun () -> Cache.store shadow key body);
        probe_job p (Option.get (Wire.job_of_request req))
      end)
    lookups
    (Wire.responses_of_string resp)

(* What round 1 established; every later round must answer the same. *)
type service_reference = {
  answers : string list;  (** the cold pass's response frames, in order *)
  search_json : string;
  requests : int;  (** per pass *)
  batch_requests : int;  (** of those, sent in multi-request frames *)
  frame_kb : float;  (** mean request frame size *)
  distinct : int;  (** distinct answers in a pass *)
  engine_twins : int;
      (** requests an earlier request of the pass matches in all but engine *)
  pass_model : int array;
  pairs : (int * int * float) list;
      (** latency-5 (seq, par, Table III) cycles in registry order *)
}

(* Round-1 checks of a cold pass: every answer is a [Run_result]; every
   seq answer carries the counters its par frame was built with; requests
   that differ only in engine get byte-identical answers. *)
let check_cold_pass r ~chains ~twin_keys ~search_json sent =
  let model = Array.make (List.length model_names) 0 in
  let twins = Hashtbl.create 512 and distinct = Hashtbl.create 512 in
  let requests = ref 0 and batch_requests = ref 0 and bytes = ref 0 in
  let one_request = Hashtbl.create 256 in
  List.iter
    (fun ({ reqs; frame }, resp) ->
      let items = List.map Repro.canon (Wire.batch_items_of_string resp) in
      let n = List.length reqs in
      requests := !requests + n;
      if n > 1 then batch_requests := !batch_requests + n;
      bytes := !bytes + String.length frame;
      if List.length items <> n then fail r "a frame's answer count differs from its requests"
      else
        List.iter2
          (fun req item ->
            Hashtbl.replace distinct item ();
            match (req, Wire.response_of_string item) with
            | Wire.Run { job; _ }, Wire.Run_result p ->
              add_counts model (model_of_report p.Wire.report);
              if n = 1 then Hashtbl.replace one_request frame p;
              let twin =
                Option.get
                  (Cache.key_of_request twin_keys
                     (Wire.Run { job; engine = Engine.Compiled }))
              in
              (match Hashtbl.find_opt twins twin with
              | None -> Hashtbl.replace twins twin item
              | Some a when String.equal a item -> ()
              | Some _ -> fail r "requests differing only in engine got different answers")
            | _ -> fail r ("not a Run_result: " ^ String.sub item 0 (min 200 (String.length item))))
          reqs items)
    sent;
  let answer f = Hashtbl.find_opt one_request f.frame in
  List.iter
    (fun c ->
      match answer c.c_seq with
      | Some p when p.Wire.load_counters <> c.c_counters ->
        fail r "a sequential answer's load counters differ from a direct run's"
      | _ -> ())
    chains;
  let pairs =
    List.filter_map
      (fun (e : Registry.entry) ->
        match
          List.find_opt
            (fun c -> c.c_latency = 5 && c.c_entry == e)
            chains
        with
        | None -> None
        | Some c -> (
          match (answer c.c_seq, answer c.c_par) with
          | Some s, Some p ->
            Some (s.Wire.cycles, p.Wire.cycles, e.Registry.paper.Registry.p_speedup4)
          | _ -> None))
      Registry.all
  in
  {
    answers = List.map snd sent;
    search_json;
    requests = !requests;
    batch_requests = !batch_requests;
    frame_kb = float_of_int !bytes /. float_of_int (max 1 (List.length sent)) /. 1024.;
    distinct = Hashtbl.length distinct;
    engine_twins = !requests - Hashtbl.length twins;
    pass_model = model;
    pairs;
  }

let service_setup ~store rng =
  let entries = Array.of_list Registry.all in
  shuffle rng entries;
  let chains =
    List.concat_map
      (fun e -> List.map (sweep_chain e) sweep_latencies)
      (Array.to_list entries)
  in
  let targets = Array.of_list (Search.registry_targets ()) in
  shuffle rng targets;
  let targets = Array.to_list targets in
  let reference = ref None and counts = ref (0, 0) in
  let round ~limit probe =
    rm_rf store;
    let cache = Cache.create store in
    let server = Server.create ~cache () in
    let shadow = Cache.create store in
    let r = new_round () in
    let sent = ref [] in
    let send f =
      let lookups = Option.map (fun p -> probe_lookup p shadow f.frame) probe in
      let t0 = now () in
      let resp = op (fun () -> Server.handle_frame server f.frame) in
      r.ops <- (now () -. t0) :: r.ops;
      sent := (f, resp) :: !sent;
      (match (probe, lookups) with
      | Some p, Some l -> probe_misses p shadow l resp
      | _ -> ());
      resp
    in
    let chains = List.filteri (fun i _ -> i < limit) chains in
    (* One pass is what the clients send: every kernel's sweep, then
       (not in the validate smoke round) the search. *)
    let pass () =
      sent := [];
      List.iter
        (fun c ->
          ignore (send c.c_seq);
          ignore (send c.c_par))
        chains;
      let search =
        if limit < max_int then ""
        else
          let exec reqs = Wire.responses_of_string (send (frame_of reqs)) in
          Search.run search_params
            (Service_eval.evaluator ~exec ~engine:Engine.Compiled)
            targets
          |> Search.to_json ~params:search_params
          |> J.to_string
      in
      (List.rev !sent, search)
    in
    let count name = List.assoc name (Cache.counters cache) in
    let cold, cold_json = pass () in
    let cold_hits = count "hits" and cold_misses = count "misses" in
    let warm, warm_json = pass () in
    let answers = List.map snd cold in
    if not (List.equal String.equal answers (List.map snd warm) && cold_json = warm_json)
    then fail r "the warm pass answered differently from the cold pass";
    let ref_ =
      match !reference with
      | Some ref_ ->
        if not (List.equal String.equal answers ref_.answers && cold_json = ref_.search_json)
        then fail r "a cold pass answered differently from round 1";
        ref_
      | None ->
        let ref_ =
          check_cold_pass r ~chains ~twin_keys:shadow ~search_json:cold_json cold
        in
        reference := Some ref_;
        if limit >= max_int then
          Printf.eprintf
            "service-via: a pass sends %d frames, %d requests; %d (%.1f%%) \
             travel in the search's batch frames, the rest one to a frame; \
             %d distinct answers; %d requests have an earlier engine twin\n"
            (List.length cold) ref_.requests ref_.batch_requests
            (100. *. float_of_int ref_.batch_requests /. float_of_int ref_.requests)
            ref_.distinct ref_.engine_twins;
        ref_
    in
    if cold_hits + cold_misses <> ref_.requests then
      fail r "the server's cache counters disagree with the cold pass";
    if count "misses" <> cold_misses || count "hits" - cold_hits <> ref_.requests then
      fail r "the warm pass was not answered entirely from the store";
    counts := (count "hits", count "misses");
    add_counts r.model ref_.pass_model;
    rm_rf store;
    r
  in
  let finish () =
    match !reference with
    | None -> { speedup = None; extra = [] }
    | Some ref_ ->
      let hits, misses = !counts in
      {
        speedup =
          (if List.length ref_.pairs = List.length Registry.all then
             Some (speedup_summary ref_.pairs)
           else None);
        extra =
          [
            ("wire.request_kb", ref_.frame_kb);
            ("cache.hits", float_of_int hits);
            ("cache.misses", float_of_int misses);
            ("cache.hit_ratio", float_of_int hits /. float_of_int (hits + misses));
            ( "cache.useful_miss_ratio",
              float_of_int ref_.distinct /. float_of_int (max 1 misses) );
          ];
      }
  in
  { round; finish; close = (fun () -> rm_rf store) }

(* ------------------------------------------------------------------ *)
(* autotune-search: the generational search over registry + corpus.    *)

let autotune_setup rng =
  let canonical = Search.registry_targets () @ Search.corpus_targets () in
  let targets = Array.of_list canonical in
  shuffle rng targets;
  let targets = Array.to_list targets in
  let params = Search.default_params in
  let direct = Search.direct ~engine:Engine.Compiled () in
  (* Set-up runs the search's first step on every target -- the
     sequential reference and the heuristic pick -- so lazy
     initialisation is done before timing, and every round must
     reproduce these cycles. *)
  let first_step = Hashtbl.create 64 in
  List.iter
    (fun (row : Search.row) ->
      Hashtbl.replace first_step row.Search.r_target.Search.t_name
        (row.Search.r_seq, row.Search.r_heuristic))
    (Search.run { params with Search.generations = 0; budget = 1 } direct targets);
  let rows = ref [] and json = ref None in
  let round ~limit probe =
    let r = new_round () in
    let probed = ref 0. in
    let evaluator jobs =
      List.map
        (fun job ->
          let t0 = now () in
          let m = op (fun () -> List.hd (direct [ job ])) in
          let t1 = now () in
          r.ops <- (t1 -. t0) :: r.ops;
          (match m with
          | Ok (c, _) -> r.model.(0) <- r.model.(0) + c
          | Error msg -> fail r (job.Wire.kernel.Finepar_ir.Kernel.name ^ ": " ^ msg));
          (match (probe, m) with
          | Some p, Ok _ ->
            probe_job p job;
            probed := !probed +. (now () -. t1)
          | _ -> ());
          m)
        jobs
    in
    (* [limit] shrinks the search to one target and one candidate. *)
    let params, targets =
      if limit >= max_int then (params, targets)
      else ({ params with Search.generations = 0; budget = 1 }, [ List.hd targets ])
    in
    let t0 = now () in
    let result = Search.run params evaluator targets in
    r.outside <- now () -. t0 -. !probed -. sum r.ops;
    List.iter
      (fun (row : Search.row) ->
        let name = row.Search.r_target.Search.t_name in
        if Hashtbl.find_opt first_step name <> Some (row.Search.r_seq, row.Search.r_heuristic)
        then fail r (name ^ ": sequential or heuristic cycles differ from set-up"))
      result;
    let doc = J.to_string (Search.to_json ~params result) in
    (match !json with
    | None -> json := Some doc
    | Some d when String.equal d doc -> ()
    | Some _ -> fail r "search result differs from the first round");
    rows := result;
    r
  in
  let finish () =
    let rows = !rows in
    let by_name name =
      List.find_opt
        (fun (row : Search.row) -> String.equal row.Search.r_target.Search.t_name name)
        rows
    in
    let pairs =
      List.filter_map
        (fun (e : Registry.entry) ->
          match by_name e.Registry.kernel.Finepar_ir.Kernel.name with
          | Some { Search.r_seq = Ok seq; r_heuristic = Ok h; _ } ->
            Some (seq, h, e.Registry.paper.Registry.p_speedup4)
          | _ -> None)
        Registry.all
    in
    (* In the unshuffled order, so the float sum is the same for every seed. *)
    let gaps =
      List.filter_map
        (fun (t : Search.target) -> Option.bind (by_name t.Search.t_name) Search.gap)
        canonical
    in
    {
      speedup =
        (if List.length pairs = List.length Registry.all then
           Some (speedup_summary pairs)
         else None);
      extra =
        [
          ( "tune.evaluated",
            float_of_int
              (List.fold_left
                 (fun a (row : Search.row) -> a + row.Search.r_evaluated)
                 0 rows) );
          ( "tune.targets_improved",
            float_of_int (List.length (List.filter (fun g -> g > 1.0) gaps)) );
          ("tune.gap_mean", if gaps = [] then 0. else mean gaps);
        ];
    }
  in
  { round; finish; close = ignore }

(* ------------------------------------------------------------------ *)
(* Workloads and metric dictionaries (BENCHMARK.json must match).       *)

type baseline = { fig12_average_4core : float; comm_variant_mean : float }

type workload = {
  name : string;
  setup : store:string -> Rng.t -> instance;
  reference : baseline -> float;  (** what [sim_speedup_mean] must equal *)
  warmup : bool;  (** run one untimed round first (short rounds only) *)
}

let workloads =
  let fig12 b = b.fig12_average_4core in
  [
    { name = "sim-queues"; setup = (fun ~store:_ -> sim_setup Comm.Queues);
      reference = fig12; warmup = true };
    { name = "sim-shared"; setup = (fun ~store:_ -> sim_setup Comm.Shared_cache);
      reference = (fun b -> b.comm_variant_mean); warmup = true };
    { name = "service-via"; setup = (fun ~store -> service_setup ~store);
      reference = fig12; warmup = false };
    { name = "autotune-search"; setup = (fun ~store:_ -> autotune_setup);
      reference = fig12; warmup = false };
  ]

let e2e_spec =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p99", "ms");
    ("sim_speedup_mean", "x");
  ]

(* The ledger's layers, outside in: every traced second of the timed
   ops lands in exactly one of these or in [unattributed]. *)
let ledger_layers =
  [
    "wire_decode"; "cache_key"; "store_read"; "compile"; "sim_create";
    "specialize"; "simulate"; "check"; "wire_encode"; "store_write"; "search";
  ]

let compile_passes =
  [
    "speculate"; "flatten"; "fiber-split"; "deps"; "code-graph"; "merge";
    "schedule"; "comm"; "lower"; "verify";
  ]

let layer_spec =
  List.map (fun l -> ("ledger." ^ l, "frac")) ledger_layers
  @ [
      ("ledger.unattributed", "frac");
      ("unattributed_s", "s");
      ("trace.wall_s", "s");
      ("trace.overhead_frac", "frac");
      ("compile.calls", "count");
    ]
  @ List.map (fun p -> ("compile." ^ p ^ "_ms", "ms")) compile_passes
  @ [
      ("sim.create_ms", "ms");
      ("sim.specialize_ms", "ms");
      ("sim.run_ms", "ms");
      ("sim.ns_per_cycle", "ns/cycle");
      ("check.calls", "count");
      ("check.eval_ms", "ms");
      ("wire.request_kb", "KB");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.hit_ratio", "frac");
      ("cache.useful_miss_ratio", "frac");
      ("tune.evaluated", "count");
      ("tune.targets_improved", "count");
      ("tune.gap_mean", "x");
    ]
  @ List.map (fun (m, u) -> ("model." ^ m, u)) model_names
  @ [
      ("model.speedup_err_vs_paper", "x");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_mb", "MB");
      ("gc.top_heap_mb", "MB");
    ]

let find_workload name = List.find_opt (fun w -> String.equal w.name name) workloads

(* ------------------------------------------------------------------ *)
(* Inputs from files.                                                   *)

let read_json path =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  match J.of_string s with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)

let field name = function
  | J.Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> failwith ("missing field " ^ name))
  | _ -> failwith ("not an object, looking for " ^ name)

let to_float = function
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> failwith "expected a number"

let to_string = function J.String s -> s | _ -> failwith "expected a string"
let to_list = function J.List l -> l | _ -> failwith "expected a list"

(* The published-reproduction numbers the speedup cross-checks use:
   Fig. 12's 4-core average and the shared-cache ablation's mean. *)
let load_baseline path =
  let sections = field "sections" (read_json path) in
  {
    fig12_average_4core = to_float (field "average_4core" (field "fig12" sections));
    comm_variant_mean =
      mean
        (List.map
           (fun r -> to_float (field "variant" r))
           (to_list (field "ablation_comm" sections)));
  }

let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
              (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ------------------------------------------------------------------ *)
(* Running one workload.                                                *)

let gc_snapshot () =
  let s = Gc.quick_stat () in
  [|
    float_of_int s.Gc.minor_collections;
    float_of_int s.Gc.major_collections;
    s.Gc.promoted_words *. float_of_int (Sys.word_size / 8) /. 1048576.;
  |]

let run_round inst probe =
  let g0 = gc_snapshot () in
  let r = inst.round ~limit:max_int probe in
  r.gc <- Array.map2 ( -. ) (gc_snapshot ()) g0;
  r

(* Whole rounds, started while fewer than [budget] seconds have passed,
   so the last one may end up to a round late. *)
let rounds_for inst ~budget probe =
  let start = now () in
  let rec go acc =
    if acc <> [] && now () -. start >= budget then List.rev acc
    else go (run_round inst probe :: acc)
  in
  go []

let ops_of rounds = List.concat_map (fun r -> r.ops) rounds

(* Per-layer seconds of the traced rounds: program spans nested under a
   benchmark op, plus the probe's isolated timings. *)
let span_layers spans =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Tracer.span) -> Hashtbl.replace by_id s.Tracer.id s) spans;
  let rec in_op (s : Tracer.span) =
    String.equal s.Tracer.cat "benchmark"
    ||
    match Hashtbl.find_opt by_id s.Tracer.parent with
    | Some p -> in_op p
    | None -> false
  in
  let total pred =
    List.fold_left
      (fun (n, t) s -> if pred s then (n + 1, t +. Tracer.duration s) else (n, t))
      (0, 0.) spans
  in
  let cat c (s : Tracer.span) = String.equal s.Tracer.cat c in
  let specialize (s : Tracer.span) = String.equal s.Tracer.name "specialize" in
  let compiles_in_ops = total (fun s -> cat "compile" s && in_op s) in
  let specializes = total (fun s -> specialize s && in_op s) in
  let sims = total (fun s -> cat "sim" s && in_op s) in
  (* Pass times over every compile the traced process ran (on sim-* all
     of them are set-up compiles). *)
  let compiles = fst (total (cat "compile")) in
  let pass name =
    snd
      (total (fun s ->
           cat "pass" s
           && String.equal s.Tracer.name name
           &&
           match Hashtbl.find_opt by_id s.Tracer.parent with
           | Some p -> cat "compile" p
           | None -> false))
  in
  (compiles_in_ops, specializes, sims, compiles, pass)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
}

let emit spec values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, unit, v)
      | None -> failwith ("metric without a value: " ^ name))
    spec

(* The per-layer set, from the traced rounds' spans and probe timings
   ([plain] supplies the untraced baseline, the GC and model counts). *)
let layer_metrics ~tracer ~probe ~plain ~traced ~summary ~trace_out =
  let paper_err = Option.fold ~none:nan ~some:snd summary.speedup in
  let spans = Tracer.spans tracer in
  let (n_compile, t_compile), (n_spec, t_spec), (n_sim, t_sim), n_compiles, pass
      =
    span_layers spans
  in
  let n_traced = float_of_int (List.length traced) in
  let wall_s = sum (List.map wall traced) in
  let seconds_of = function
    | "compile" -> t_compile
    | "specialize" -> t_spec
    | "simulate" -> t_sim -. t_spec
    | "search" -> sum (List.map (fun r -> r.outside) traced)
    | layer -> probe_secs probe layer
  in
  let layers = List.map (fun l -> (l, seconds_of l)) ledger_layers in
  let unattributed = wall_s -. sum (List.map snd layers) in
  Printf.eprintf "\nlayer ledger over %d traced rounds (%.3f s):\n"
    (List.length traced) wall_s;
  List.iter
    (fun (l, s) ->
      Printf.eprintf "  %-14s %9.4f s  %6.2f%%\n" l s (100. *. s /. wall_s))
    (layers @ [ ("unattributed", unattributed) ]);
  let cycles_traced = sum (List.map (fun r -> float_of_int (cycles r)) traced) in
  let per n t = if n = 0 then 0. else t /. float_of_int n in
  let median_wall rounds = median (List.map wall rounds) in
  let probe_ms layer =
    1000. *. per (probe_calls probe layer) (probe_secs probe layer)
  in
  let first = List.hd plain in
  let med_gc i = median (List.map (fun r -> r.gc.(i)) plain) in
  let gc_top =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  (match trace_out with
  | None -> ()
  | Some file ->
    Out_channel.with_open_bin file (fun oc ->
        Chrome_trace.to_channel oc (Tracer.to_chrome tracer));
    Printf.eprintf "trace written to %s\n" file);
  let extra name = Option.value ~default:0. (List.assoc_opt name summary.extra) in
  emit layer_spec
    (List.map (fun (l, s) -> ("ledger." ^ l, s /. wall_s)) layers
    @ [
        ("ledger.unattributed", unattributed /. wall_s);
        ("unattributed_s", unattributed);
        ("trace.wall_s", wall_s);
        ("trace.overhead_frac", (median_wall traced /. median_wall plain) -. 1.);
        ("compile.calls", float_of_int n_compile /. n_traced);
      ]
    @ List.map
        (fun p -> ("compile." ^ p ^ "_ms", 1000. *. per n_compiles (pass p)))
        compile_passes
    @ [
        ("sim.create_ms", probe_ms "sim_create");
        ("sim.specialize_ms", 1000. *. per n_spec t_spec);
        ("sim.run_ms", 1000. *. per n_sim (t_sim -. t_spec));
        ("sim.ns_per_cycle", 1e9 *. (t_sim -. t_spec) /. cycles_traced);
        ("check.calls", float_of_int (probe_calls probe "check") /. n_traced);
        ("check.eval_ms", probe_ms "check");
      ]
    @ List.map
        (fun n -> (n, extra n))
        [
          "wire.request_kb"; "cache.hits"; "cache.misses"; "cache.hit_ratio";
          "cache.useful_miss_ratio"; "tune.evaluated"; "tune.targets_improved";
          "tune.gap_mean";
        ]
    @ List.mapi
        (fun i (m, _) -> ("model." ^ m, float_of_int first.model.(i)))
        model_names
    @ [
        ("model.speedup_err_vs_paper", paper_err);
        ("gc.minor_collections", med_gc 0);
        ("gc.major_collections", med_gc 1);
        ("gc.promoted_mb", med_gc 2);
        ("gc.top_heap_mb", gc_top);
      ])

(* Set-up runs this many times and reports the median, so work moved
   into set-up shows; the last instance is the one measured. *)
let setup_repeats = 3

let run_workload ~w ~seed ~seconds ~trace ~baseline ~work_dir ~trace_out =
  let store =
    Filename.concat work_dir (Printf.sprintf "store-%d" (Unix.getpid ()))
  in
  let tracer = Tracer.create () in
  if trace then Tracer.install tracer;
  let setups, inst =
    let rec go k acc prev =
      Option.iter (fun i -> i.close ()) prev;
      let t0 = now () in
      let i = w.setup ~store (Rng.create seed) in
      let acc = (now () -. t0) :: acc in
      if k <= 1 then (acc, i) else go (k - 1) acc (Some i)
    in
    go (if trace then 1 else setup_repeats) [] None
  in
  Fun.protect ~finally:inst.close @@ fun () ->
  Tracer.uninstall ();
  Gc.compact ();
  let warm = if w.warmup then [ run_round inst None ] else [] in
  let budget = float_of_int seconds in
  let plain = rounds_for inst ~budget:(if trace then budget /. 2. else budget) None in
  let probe = new_probe () in
  let traced =
    if not trace then []
    else begin
      Tracer.install tracer;
      let rs = rounds_for inst ~budget:(budget /. 2.) (Some probe) in
      Tracer.uninstall ();
      rs
    end
  in
  let summary = inst.finish () in
  let all = warm @ plain @ traced in
  let attempted = List.length (ops_of all) in
  let failed = List.fold_left (fun a (r : round) -> a + r.failed) 0 all in
  let expected = w.reference baseline in
  let speedup_check =
    match summary.speedup with
    | Some (s, _) ->
      ( Printf.sprintf "sim_speedup_mean %.17g = reference %.17g" s expected,
        Float.equal s expected )
    | None -> ("sim_speedup_mean computed", false)
  in
  Printf.eprintf "%s: %s\n" (if snd speedup_check then "ok" else "FAILED")
    (fst speedup_check);
  let correct = failed = 0 && snd speedup_check in
  (* Every timed round counts, so pauses the program causes itself (GC,
     store I/O) show as well as host noise.  Each statistic is taken per
     round and the median over rounds reported: a burst of host noise
     that covers a few rounds does not move it.  Pooling the ops of all
     rounds instead let such bursts set the p99 (see README.md). *)
  let per_round f = median (List.map f plain) in
  let metrics =
    if not trace then
      emit e2e_spec
        [
          ("setup_s", median setups);
          ("peak_rss_mb", peak_rss_mb ());
          ("ops_per_s", per_round (fun r -> float_of_int (List.length r.ops) /. wall r));
          ("op_ms_p50", 1000. *. per_round (fun r -> percentile 0.50 r.ops));
          ("op_ms_p99", 1000. *. per_round (fun r -> percentile 0.99 r.ops));
          ("sim_speedup_mean", Option.fold ~none:nan ~some:fst summary.speedup);
        ]
    else
      layer_metrics ~tracer ~probe ~plain ~traced ~summary ~trace_out
  in
  Printf.eprintf "%s: %d rounds of %d ops (%d ops, %d failed), %.2f s timed\n%!"
    w.name
    (List.length plain + List.length traced)
    (List.length (List.hd plain).ops)
    attempted failed
    (sum (List.map wall (plain @ traced)));
  { correct; attempted; failed; metrics }

let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, J.Obj [ ("value", J.Float v); ("unit", J.String unit) ]))
             r.metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* validate: the runtest smoke check.                                   *)

let names_of key spec = List.map (fun m -> to_string (field key m)) (to_list spec)

let validate ~spec ~baseline ~work_dir =
  let doc = read_json spec in
  let problems = ref [] in
  let expect what got want =
    if got <> want then
      problems :=
        Printf.sprintf "%s: BENCHMARK.json has [%s], main.ml [%s]" what
          (String.concat " " got) (String.concat " " want)
        :: !problems
  in
  expect "workloads" (names_of "name" (field "workloads" doc))
    (List.map (fun w -> w.name) workloads);
  List.iter
    (fun (key, spec) ->
      let entries = field key doc in
      expect (key ^ " names") (names_of "name" entries) (List.map fst spec);
      expect (key ^ " units") (names_of "unit" entries) (List.map snd spec))
    [ ("end_to_end", e2e_spec); ("per_layer", layer_spec) ];
  let baseline = load_baseline baseline in
  List.iter
    (fun w ->
      let store =
        Filename.concat work_dir (Printf.sprintf "validate-%d" (Unix.getpid ()))
      in
      let inst = w.setup ~store (Rng.create 1) in
      Fun.protect ~finally:inst.close @@ fun () ->
      let r = inst.round ~limit:1 None in
      let s = inst.finish () in
      if r.failed > 0 then
        problems := (w.name ^ ": smoke op failed its checks") :: !problems;
      match s.speedup with
      | Some (got, _) when not (Float.equal got (w.reference baseline)) ->
        problems :=
          Printf.sprintf "%s: sim_speedup_mean %.17g, baseline %.17g" w.name got
            (w.reference baseline)
          :: !problems
      | _ -> ())
    workloads;
  (* One compiled-engine op against the reference cycle stepper. *)
  let job =
    List.nth (registry_jobs ~mode:Comm.Queues ~width:1 (List.hd Registry.all)) 1
  in
  let cyc =
    (Runner.run ~check:true ~workload:job.entry.Registry.workload ~engine:Engine.Cycle
       job.compiled).Runner.cycles
  in
  if cyc <> (run_sim_job job).Runner.cycles then
    problems := "compiled engine disagrees with Engine.Cycle" :: !problems;
  match !problems with
  | [] -> print_endline "benchmark validate: ok"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

(* ------------------------------------------------------------------ *)
(* compare: two directories of recorded runs, metric by metric.         *)

(* Fewer pairs than this cannot show a gain: with one pair, one lucky
   run would read as "better". *)
let min_pairs = 10

let runs_in dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.map (fun f -> read_json (Filename.concat dir f))

let compare_dirs ~spec a b =
  let doc = read_json spec in
  let value metric run =
    to_float (field "value" (field metric (field "metrics" (field "result" run))))
  in
  let of_workload w runs =
    List.filter (fun r -> String.equal (to_string (field "workload" r)) w) runs
  in
  let runs_a = runs_in a and runs_b = runs_in b in
  let worse = ref 0 in
  Printf.printf "%-16s %-18s %12s %12s %7s %7s  %s\n" "workload" "metric" "A median"
    "B median" "B wins" "spread" "verdict";
  List.iter
    (fun wl ->
      let w = to_string (field "name" wl) in
      let ra = of_workload w runs_a and rb = of_workload w runs_b in
      (* Runs pair up in file order, which run.sh makes seed order. *)
      let paired = List.length ra = List.length rb in
      if not paired then
        Printf.printf
          "%s: A has %d runs and B %d; runs pair only when the counts match, so \
           no metric can read better\n"
          w (List.length ra) (List.length rb);
      List.iter
        (fun m ->
          let metric = to_string (field "name" m) in
          let bound = to_float (field "bound" m) in
          let lower = String.equal (to_string (field "better" m)) "lower" in
          let xa = List.map (value metric) ra and xb = List.map (value metric) rb in
          let better x y = if lower then x < y else x > y in
          let n = if paired then List.length xa else 0 in
          let wins =
            if paired then List.length (List.filter Fun.id (List.map2 better xb xa))
            else 0
          in
          let ma = median xa and mb = median xb in
          let q1, q3 = quartiles xa in
          let spread = Float.max (rel_spread xa) (rel_spread xb) in
          let rel_worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
          let all_better =
            List.for_all (fun y -> List.for_all (fun x -> better y x) xa) xb
          in
          let gain =
            n > 0 && 10 * wins >= 9 * n && Float.abs (mb -. ma) > q3 -. q1 && better mb ma
          in
          let verdict =
            if xa = [] || xb = [] then "unresolved"
            else if gain then if n >= min_pairs then "better" else "unresolved"
            else if spread > bound then
              (* Too noisy to bound a regression, unless every change run
                 beats every parent run: then there is none. *)
              if all_better then "unchanged" else "unresolved"
            else if rel_worse > bound then "worse"
            else "unchanged"
          in
          if String.equal verdict "worse" then incr worse;
          Printf.printf "%-16s %-18s %12.6g %12.6g %4d/%-2d %6.1f%%  %s\n" w metric ma
            mb wins n (100. *. spread) verdict)
        (to_list (field "end_to_end" doc)))
    (to_list (field "workloads" doc));
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Command line.                                                        *)

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S --trace 0|1 [--record FILE]\n\
    \         [--commit SHA] [--trace-out FILE] [--baseline FILE] [--work-dir DIR]\n\
    \       main.exe validate [--spec FILE] [--baseline FILE] [--work-dir DIR]\n\
    \       main.exe compare DIR_A DIR_B [--spec FILE]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec flags acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      flags ((k, v) :: acc) rest
    | [] -> (acc, [])
    | rest -> (acc, rest)
  in
  let cmd, rest = match args with c :: rest -> (c, rest) | [] -> usage () in
  let opts, positional =
    match cmd with
    | "compare" -> (
      match rest with a :: b :: tl -> (fst (flags [] tl), [ a; b ]) | _ -> usage ())
    | _ -> flags [] rest
  in
  if cmd <> "compare" && positional <> [] then usage ();
  let opt k default = Option.value ~default (List.assoc_opt k opts) in
  let spec = opt "--spec" "BENCHMARK.json" in
  let baseline = opt "--baseline" "bench/baseline.json" in
  let work_dir = opt "--work-dir" "_bench" in
  (* Stores live here while a run lasts; only traces outlive it. *)
  let in_work_dir f =
    if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
    Fun.protect f ~finally:(fun () ->
        try Unix.rmdir work_dir with Unix.Unix_error _ -> ())
  in
  match cmd with
  | "run" -> (
    let int k =
      match int_of_string_opt (opt k "") with Some n -> n | None -> usage ()
    in
    let w =
      match find_workload (opt "--workload" "") with Some w -> w | None -> usage ()
    in
    let seed = int "--seed" and seconds = int "--seconds" in
    let trace =
      match opt "--trace" "" with "0" -> false | "1" -> true | _ -> usage ()
    in
    let baseline = load_baseline baseline in
    in_work_dir @@ fun () ->
    let trace_out =
      if trace then
        let default = Filename.concat work_dir ("trace-" ^ w.name ^ ".json") in
        Some (opt "--trace-out" default)
      else None
    in
    let r = run_workload ~w ~seed ~seconds ~trace ~baseline ~work_dir ~trace_out in
    let line = J.to_string (result_json r) in
    (match List.assoc_opt "--record" opts with
    | None -> ()
    | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          J.to_channel oc
            (J.Obj
               [
                 ( "meta",
                   J.Obj
                     [
                       ("nproc", J.Int (Domain.recommended_domain_count ()));
                       ("ocaml", J.String Sys.ocaml_version);
                       ("commit", J.String (opt "--commit" "unknown"));
                       ("domains", J.Int 1);
                     ] );
                 ("workload", J.String w.name);
                 ("seed", J.Int seed);
                 ("seconds", J.Int seconds);
                 ("trace", J.Bool trace);
                 ("result", result_json r);
               ]);
          output_char oc '\n'));
    print_endline line)
  | "validate" -> in_work_dir (fun () -> validate ~spec ~baseline ~work_dir)
  | "compare" -> (
    match positional with [ a; b ] -> compare_dirs ~spec a b | _ -> usage ())
  | _ -> usage ()

(* The finepar command-line interface.

   Subcommands:
     list       kernels and their Section IV classification
     run        compile one kernel and simulate it
     verify     static queue-protocol verification (kernels, corpus, smoke)
     show       dump compiler stages for one kernel
     trace      simulate and export a Chrome trace_event timeline
     report     per-core / per-queue / per-fiber cycle attribution
     sweep      transfer-latency sweep for one kernel
     autotune   compile several code versions, keep the fastest
     classify   the 51-loop characterization funnel
     fuzz       differential fuzzing with shrinking and a corpus *)

open Cmdliner
open Finepar
open Finepar_kernels

let find_entry name =
  match Registry.find name with
  | Some e -> e
  | None ->
    Fmt.epr "unknown kernel %s; try `finepar list`@." name;
    exit 1

let kernel_arg =
  let doc = "Kernel name (see `finepar list`)." in
  Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc)

let cores_arg =
  let doc = "Number of hardware cores (1, 2 or 4 in the paper)." in
  Arg.(value & opt int 4 & info [ "c"; "cores" ] ~doc)

let latency_arg =
  let doc = "Queue transfer latency in cycles." in
  Arg.(value & opt int 5 & info [ "latency" ] ~doc)

let queue_len_arg =
  let doc = "Queue length in slots." in
  Arg.(value & opt int 20 & info [ "queue-len" ] ~doc)

let speculation_arg =
  let doc = "Enable control-flow speculation (Section III-H)." in
  Arg.(value & flag & info [ "speculation" ] ~doc)

let throughput_arg =
  let doc = "Enable the throughput (unidirectional) merge heuristic." in
  Arg.(value & flag & info [ "throughput" ] ~doc)

let issue_width_arg =
  let doc = "Instructions each core may issue per cycle (1 = the paper's \
             machine, 2 = dual-issue)." in
  Arg.(value & opt int 1 & info [ "issue-width" ] ~doc)

let comm_conv =
  let parse s =
    match Finepar_transform.Comm.mode_of_name s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg (Printf.sprintf "unknown comm mode %s (expected queues or shared_cache)" s))
  in
  Arg.conv
    (parse, fun ppf m -> Fmt.string ppf (Finepar_transform.Comm.mode_name m))

let comm_arg =
  let doc =
    "How cross-core transfers are realized: $(b,queues) (the paper's \
     dedicated hardware queues) or $(b,shared_cache) (valid-flag \
     handshakes through the ordinary cache hierarchy)."
  in
  Arg.(
    value
    & opt comm_conv Finepar_transform.Comm.Queues
    & info [ "comm" ] ~doc)

let engine_conv =
  let parse str =
    match Finepar_machine.Engine.of_string str with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown engine %s (expected %s)" str
             (String.concat ", "
                (List.map Finepar_machine.Engine.to_string
                   Finepar_machine.Engine.all))))
  in
  let print ppf e = Fmt.string ppf (Finepar_machine.Engine.to_string e) in
  Arg.conv (parse, print)

let engine_arg =
  let doc =
    "Simulation engine: $(b,compiled), the default (per-core programs \
     pre-specialized to closure arrays, fast-forwarding cycles in which \
     nothing can issue), or $(b,cycle) (the reference stepper).  The two \
     are cycle-exact to each other; $(b,compiled) is faster."
  in
  Arg.(
    value
    & opt engine_conv Finepar_machine.Engine.default
    & info [ "engine" ] ~doc)

let machine_of ?(issue_width = 1) ~latency ~queue_len () =
  {
    Finepar_machine.Config.default with
    Finepar_machine.Config.transfer_latency = latency;
    queue_len;
    issue_width;
  }

(* The job the single-kernel subcommands ([run], [report], [trace],
   [profile]) measure: a registry kernel on its fixed workload. *)
let registry_job ?(issue_width = 1) ?(comm = Finepar_transform.Comm.Queues)
    ~name ~cores ~latency ~queue_len ~speculation ~throughput () =
  let e = find_entry name in
  let config =
    {
      (Compiler.default_config ~cores ()) with
      Compiler.speculation;
      throughput;
      comm_mode = comm;
    }
  in
  Job.make
    ~machine:(machine_of ~issue_width ~latency ~queue_len ())
    ~config ~workload:e.Registry.workload ~cores e.Registry.kernel

(* ------------------------------------------------------------------ *)
(* Service routing: with --via, sweep/autotune/report/fuzz-replay send
   their jobs through the content-addressed result cache, in-process
   over a disk store or to a running `finepar serve`.  The server
   computes a miss with {!Job.compile} and {!Job.run}, the chain the
   direct path runs, so stdout is the same bytes with or without it. *)

module Wire = Finepar_service.Wire
module Svc_cache = Finepar_service.Cache
module Svc_server = Finepar_service.Server
module Svc_client = Finepar_service.Client

let via_conv =
  let parse s =
    match Svc_client.via_of_string s with
    | Ok v -> Ok v
    | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (Svc_client.via_to_string v))

let via_arg =
  let doc =
    "Route compile/run work through the persistent result cache: \
     $(b,store:DIR) opens the on-disk store in-process (no server \
     needed), $(b,socket:PATH) sends batches to a running `finepar \
     serve`.  Results are byte-identical to the direct path (cached or \
     not); repeated invocations are answered from the store."
  in
  Arg.(value & opt (some via_conv) None & info [ "via" ] ~doc ~docv:"VIA")

(* A session: one exec function whose cache handle (store:) or socket
   connection persists across batches of the same CLI invocation, plus
   that handle's hit/miss counters (invocation-lifetime for store:,
   server-lifetime for socket:).  [pool] parallelizes the in-process
   store path's miss computation. *)
let with_via ?pool via f =
  match
    Svc_client.with_session ?pool via (fun session ->
        f
          ~exec:(Svc_client.session_exec session)
          ~counters:(fun () -> Svc_client.session_counters session))
  with
  | v -> v
  | exception Failure msg ->
    Fmt.epr "%s@." msg;
    exit 1

let pp_cache_counters counters =
  let get name = Option.value ~default:0 (List.assoc_opt name counters) in
  let hits = get "hits" and misses = get "misses" in
  let total = hits + misses in
  Fmt.epr "cache: %d hits, %d misses (%.1f%% hit rate), %d entries@." hits
    misses
    (if total = 0 then 0. else 100. *. float_of_int hits /. float_of_int total)
    (get "entries")

(* The evaluator behind every measuring subcommand: {!Job.direct}, or
   with --via the service evaluator over one session, whose cache
   counters then go to stderr.  The protocol run over it ({!Job.speedup},
   {!Job.autotune}, the search) is the same code either way, so stdout is
   the same bytes either way; a failed measurement exits 1 on both. *)
let with_evaluator ?pool ~engine via f =
  match
    match via with
    | None -> f (Job.direct ?pool ~engine ())
    | Some via ->
      with_via ?pool via @@ fun ~exec ~counters ->
      let v = f (Finepar_tune.Service_eval.evaluator ~exec ~engine) in
      pp_cache_counters (counters ());
      v
  with
  | v -> v
  | exception Job.Failed msg ->
    Fmt.epr "error: %s@." msg;
    exit 1

(* The fuzz reproducer's case as a job on its seeded workload. *)
let case_job (case : Finepar_fuzz.Gen.case) =
  {
    Job.kernel = case.Finepar_fuzz.Gen.kernel;
    config = case.Finepar_fuzz.Gen.config;
    sequential = false;
    placement = case.Finepar_fuzz.Gen.placement;
    workload = Job.Seeded case.Finepar_fuzz.Gen.workload_seed;
    profile_counters = [];
  }

(* ------------------------------------------------------------------ *)
(* Unified host-side tracing: every heavyweight subcommand accepts the
   same --trace-out/--profile pair.  With neither given no tracer is
   installed and every span site stays a single atomic load. *)

let trace_out_arg =
  let doc =
    "Write a Chrome trace_event timeline of the host pipeline (compiler \
     passes, simulator runs, fuzz cases; one thread row per domain) to \
     $(docv).  Open in chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let profile_arg =
  let doc =
    "Print a self-time/total-time profile tree of the host pipeline on \
     exit.  With $(docv), write it as JSON there instead ($(b,-) keeps \
     the text form on stdout)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "profile" ] ~doc ~docv:"FILE")

let write_chrome_trace tracer file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Finepar_telemetry.Chrome_trace.to_channel oc
        (Finepar_telemetry.Tracer.to_chrome tracer));
  Fmt.epr "wrote %s@." file

let emit_profile tracer dest =
  let tree =
    Finepar_telemetry.Profile_tree.of_spans
      (Finepar_telemetry.Tracer.spans tracer)
  in
  if String.equal dest "-" then
    Fmt.pr "@[%a@]@."
      (fun ppf t -> Finepar_telemetry.Profile_tree.pp ppf t)
      tree
  else begin
    let oc = open_out dest in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Finepar_telemetry.Json.to_channel oc
          (Finepar_telemetry.Profile_tree.to_json tree);
        output_char oc '\n');
    Fmt.epr "wrote %s@." dest
  end

(* Run [f] under an installed tracer when either flag was given, then
   export.  The export is also registered with [at_exit] (guarded to
   run once) because failing subcommands leave through [exit 1], which
   skips [Fun.protect] finalizers — a failing run still leaves its
   trace behind. *)
let with_tracing ~trace_out ~profile f =
  match (trace_out, profile) with
  | None, None -> f ()
  | _ ->
    let tracer = Finepar_telemetry.Tracer.create () in
    Finepar_telemetry.Tracer.install tracer;
    let exported = ref false in
    let export () =
      if not !exported then begin
        exported := true;
        Finepar_telemetry.Tracer.uninstall ();
        Option.iter (write_chrome_trace tracer) trace_out;
        Option.iter (emit_profile tracer) profile
      end
    in
    at_exit export;
    Fun.protect ~finally:export f

let tracing_enabled ~trace_out ~profile =
  trace_out <> None || profile <> None

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Fmt.pr "%-10s %-8s %6s %-50s@." "kernel" "app" "%time" "location";
    List.iter
      (fun (e : Registry.entry) ->
        Fmt.pr "%-10s %-8s %6.1f %-50s@." e.Registry.kernel.Finepar_ir.Kernel.name
          e.Registry.app e.Registry.pct_time e.Registry.location)
      Registry.all;
    Fmt.pr "@.%d additional corpus loops (use `finepar classify`).@."
      (List.length Corpus.excluded)
  in
  Cmd.v (Cmd.info "list" ~doc:"List the evaluation kernels")
    Term.(const run $ const ())

let run_cmd =
  let run name cores latency queue_len speculation throughput issue_width comm
      engine trace_out profile =
    with_tracing ~trace_out ~profile @@ fun () ->
    let job =
      registry_job ~issue_width ~comm ~name ~cores ~latency ~queue_len
        ~speculation ~throughput ()
    in
    (* The stats printed are those of the compile that was measured. *)
    let seq, c, par =
      with_evaluator ~engine None @@ fun evaluator ->
      Job.measured_speedup ~engine evaluator job
    in
    Fmt.pr "kernel      %s@." name;
    Fmt.pr "sequential  %d cycles@." seq;
    Fmt.pr "parallel    %d cycles on %d cores@." par
      c.Compiler.stats.Compiler.n_partitions;
    Fmt.pr "speedup     %.2f@." (float_of_int seq /. float_of_int par);
    Fmt.pr "stats       %a@." Compiler.pp_stats c.Compiler.stats;
    Fmt.pr "result      verified bit-exact against the reference evaluator@."
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile and simulate one kernel")
    Term.(
      const run $ kernel_arg $ cores_arg $ latency_arg $ queue_len_arg
      $ speculation_arg $ throughput_arg $ issue_width_arg $ comm_arg
      $ engine_arg $ trace_out_arg $ profile_arg)

let show_cmd =
  let stage_arg =
    let doc = "Stage to dump: kernel, region, fibers, graph, partition, asm, timeline." in
    Arg.(value & opt string "partition" & info [ "stage" ] ~doc)
  in
  let run name cores stage =
    let e = find_entry name in
    let config = Compiler.default_config ~cores () in
    let c = Compiler.compile config e.Registry.kernel in
    match stage with
    | "kernel" -> Fmt.pr "%a@." Finepar_ir.Kernel.pp e.Registry.kernel
    | "region" ->
      Fmt.pr "%a@." Finepar_ir.Region.pp
        (Finepar_ir.Region.of_kernel e.Registry.kernel)
    | "fibers" -> Fmt.pr "%a@." Finepar_ir.Region.pp c.Compiler.region
    | "graph" -> Fmt.pr "%a@." Finepar_analysis.Deps.pp c.Compiler.deps
    | "partition" ->
      List.iter
        (fun (s : Finepar_ir.Region.sstmt) ->
          Fmt.pr "core %d | %a@."
            c.Compiler.cluster_of.(s.Finepar_ir.Region.id)
            Finepar_ir.Region.pp_sstmt s)
        c.Compiler.region.Finepar_ir.Region.stmts
    | "asm" ->
      Fmt.pr "%a@." Finepar_machine.Program.pp
        c.Compiler.code.Finepar_codegen.Lower.program
    | "timeline" ->
      (* Per-core activity for the first cycles of the run: one column
         per cycle; '#' = instruction issued, 'E'/'D' = enqueue/dequeue
         issued, '~' = stalled on a queue, '.' = other (operand stall or
         idle). *)
      let sim =
        Finepar_machine.Sim.create ~tracing:true
          ~config:c.Compiler.config.Compiler.machine
          ~initial:e.Registry.workload
          c.Compiler.code.Finepar_codegen.Lower.program
      in
      ignore (Finepar_machine.Sim.run sim);
      let cores_n =
        Array.length c.Compiler.code.Finepar_codegen.Lower.program.Finepar_machine.Program.cores
      in
      let width = 72 and rows = 4 in
      let span = width * rows in
      (* The trace ring keeps the most recent events; on long runs the
         start of the run is gone, so show the oldest window we have. *)
      let events = Finepar_machine.Sim.events sim in
      let base =
        List.fold_left
          (fun acc ev ->
            match ev with
            | Finepar_machine.Sim.Ev_issue { cycle; _ }
            | Finepar_machine.Sim.Ev_stall { cycle; _ } ->
              min acc cycle)
          max_int events
      in
      let base = if base = max_int then 0 else base in
      let grid = Array.init cores_n (fun _ -> Bytes.make span '.') in
      List.iter
        (fun ev ->
          match ev with
          | Finepar_machine.Sim.Ev_issue { core; cycle; instr; _ }
            when cycle - base < span ->
            let cycle = cycle - base in
            let ch =
              match instr with
              | Finepar_machine.Isa.Enq _ -> 'E'
              | Finepar_machine.Isa.Deq _ -> 'D'
              | _ -> '#'
            in
            Bytes.set grid.(core) cycle ch
          | Finepar_machine.Sim.Ev_stall { core; cycle; reason; _ }
            when cycle - base < span ->
            let cycle = cycle - base in
            if Bytes.get grid.(core) cycle = '.' then
              Bytes.set grid.(core) cycle
                (match reason with
                | Finepar_telemetry.Stall.Operand -> 'o'
                | Finepar_telemetry.Stall.Queue_full _
                | Finepar_telemetry.Stall.Queue_empty _ -> '~')
          | Finepar_machine.Sim.Ev_issue _ | Finepar_machine.Sim.Ev_stall _ ->
            ())
        events;
      if base > 0 then
        Fmt.pr
          "(the trace ring kept the last %d events; showing the oldest \
           retained window)@.@."
          (List.length events);
      for row = 0 to rows - 1 do
        Fmt.pr "cycles %4d..%4d@."
          (base + (row * width))
          (base + (((row + 1) * width) - 1));
        for core = 0 to cores_n - 1 do
          Fmt.pr "  core %d |%s|@." core
            (Bytes.to_string (Bytes.sub grid.(core) (row * width) width))
        done;
        Fmt.pr "@."
      done;
      Fmt.pr
        "legend: '#' issue, 'E' enqueue, 'D' dequeue, '~' queue stall, 'o' \
         operand stall, '.' wait/idle@."
    | other ->
      Fmt.epr "unknown stage %s@." other;
      exit 1
  in
  Cmd.v (Cmd.info "show" ~doc:"Dump compiler stages for one kernel")
    Term.(const run $ kernel_arg $ cores_arg $ stage_arg)

let output_arg =
  let doc = "Output file ('-' for stdout)." in
  Arg.(value & opt string "-" & info [ "o"; "output" ] ~doc)

let with_output file f =
  if String.equal file "-" then f stdout
  else begin
    let oc = open_out file in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc);
    Fmt.pr "wrote %s@." file
  end

let compile_and_sim ?issue_width ?comm ~name ~cores ~latency ~queue_len
    ~speculation ~throughput ~tracing ~engine () =
  let job =
    registry_job ?issue_width ?comm ~name ~cores ~latency ~queue_len
      ~speculation ~throughput ()
  in
  Runner.run_with_sim ~tracing ~engine
    ~workload:(find_entry name).Registry.workload (Job.compile job)

(* Run [f] under a fresh installed tracer; its spans are the host lane
   of [trace] and the tree of [profile]. *)
let with_host_tracer f =
  let tracer = Finepar_telemetry.Tracer.create () in
  Finepar_telemetry.Tracer.install tracer;
  let v = Fun.protect ~finally:Finepar_telemetry.Tracer.uninstall f in
  (v, tracer)

let trace_cmd =
  let run name cores latency queue_len speculation throughput issue_width comm
      engine output =
    let (_, sim), tracer =
      with_host_tracer @@ fun () ->
      compile_and_sim ~issue_width ~comm ~name ~cores ~latency ~queue_len
        ~speculation ~throughput ~tracing:true ~engine ()
    in
    let events =
      Report.chrome_trace sim @ Finepar_telemetry.Tracer.to_chrome tracer
    in
    with_output output (fun oc ->
        Finepar_telemetry.Chrome_trace.to_channel oc events);
    let dropped = Finepar_machine.Sim.dropped_events sim in
    if dropped > 0 then
      Fmt.epr
        "warning: trace ring dropped %d early events; raise the capacity \
         to keep them@."
        dropped
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Simulate one kernel and export a Chrome trace_event timeline \
          (open in chrome://tracing or Perfetto): one lane per core, an \
          occupancy counter per queue, and a host lane (pid 3) with the \
          compile span, its pass spans and the simulator run")
    Term.(
      const run $ kernel_arg $ cores_arg $ latency_arg $ queue_len_arg
      $ speculation_arg $ throughput_arg $ issue_width_arg $ comm_arg
      $ engine_arg $ output_arg)

let report_cmd =
  let format_arg =
    let doc = "Output format: text, json or csv." in
    Arg.(value & opt string "text" & info [ "format" ] ~doc)
  in
  let run name cores latency queue_len speculation throughput issue_width comm
      engine via format output =
    let job =
      registry_job ~issue_width ~comm ~name ~cores ~latency ~queue_len
        ~speculation ~throughput ()
    in
    (* One job, evaluated in process or through the cache: the report
       is guest data only, so every format is the same bytes either
       way; CI compares them. *)
    let t =
      match via with
      | None -> (Job.eval ~engine job).Runner.telemetry
      | Some via ->
        with_via via @@ fun ~exec ~counters:_ ->
        match exec [ Wire.Run { job; engine } ] with
        | [ Wire.Run_result p ] -> p.Wire.report
        | [ Wire.Error msg ] ->
          Fmt.epr "error: %s@." msg;
          exit 1
        | _ ->
          Fmt.epr "service: unexpected response kind@.";
          exit 1
    in
    match format with
    | "text" ->
      with_output output (fun oc ->
          Fmt.pf (Format.formatter_of_out_channel oc) "%a@." Report.pp t)
    | "json" ->
      with_output output (fun oc ->
          Finepar_telemetry.Json.to_channel oc (Report.to_json t);
          output_char oc '\n')
    | "csv" ->
      with_output output (fun oc -> output_string oc (Report.to_csv t))
    | other ->
      Fmt.epr "unknown format %s (expected text, json or csv)@." other;
      exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Per-core, per-queue and per-fiber cycle attribution for one \
          simulated kernel (host pass times: $(b,profile) or \
          $(b,run --profile))")
    Term.(
      const run $ kernel_arg $ cores_arg $ latency_arg $ queue_len_arg
      $ speculation_arg $ throughput_arg $ issue_width_arg $ comm_arg
      $ engine_arg $ via_arg $ format_arg $ output_arg)

let sweep_cmd =
  let run name cores queue_len engine via trace_out profile =
    with_tracing ~trace_out ~profile @@ fun () ->
    let e = find_entry name in
    let latencies = [ 5; 10; 20; 50; 100 ] in
    Fmt.pr "%-10s %8s@." "latency" "speedup";
    with_evaluator ~engine via @@ fun evaluator ->
    List.iter
      (fun latency ->
        let machine = machine_of ~latency ~queue_len () in
        let _, _, s =
          Job.speedup evaluator
            (Job.make ~machine ~workload:e.Registry.workload ~cores
               e.Registry.kernel)
        in
        Fmt.pr "%-10d %8.2f@." latency s)
      latencies
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Transfer-latency sweep for one kernel (Fig. 13)")
    Term.(
      const run $ kernel_arg $ cores_arg $ queue_len_arg $ engine_arg
      $ via_arg $ trace_out_arg $ profile_arg)

module Tune_search = Finepar_tune.Search

let autotune_cmd =
  let kernel_opt_arg =
    let doc =
      "Kernel name (see `finepar list`).  Required without --search; \
       with --search, restricts the search to that one target."
    in
    Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~doc)
  in
  let search_arg =
    let doc =
      "Generational beam search over merge algorithm, affinity weights, \
       speculation/throughput, core count, queue length and transfer \
       latency, instead of the fixed six-candidate list.  Output is \
       byte-identical at every -j and cached-vs-fresh through --via."
    in
    Arg.(value & flag & info [ "search" ] ~doc)
  in
  let scope_arg =
    let doc =
      "Search targets: $(b,registry) (the 18 evaluation kernels), \
       $(b,loops) (the 33 excluded characterization loops) or $(b,all) \
       (both)."
    in
    Arg.(value & opt string "all" & info [ "scope" ] ~doc)
  in
  let fuzz_corpus_arg =
    let doc =
      "Also tune every promoted fuzz reproducer in this corpus \
       directory (targets named fuzz:<basename>)."
    in
    Arg.(value & opt (some string) None & info [ "fuzz-corpus" ] ~doc)
  in
  let beam_arg =
    let doc = "Elite configurations expanded each generation." in
    Arg.(value & opt int 2 & info [ "beam" ] ~doc)
  in
  let generations_arg =
    let doc = "Neighbor-expansion generations after the seed generation." in
    Arg.(value & opt int 3 & info [ "generations" ] ~doc)
  in
  let budget_arg =
    let doc =
      "Maximum candidate evaluations per kernel (the sequential \
       reference is not counted)."
    in
    Arg.(value & opt int 40 & info [ "budget" ] ~doc)
  in
  let format_arg =
    let doc = "Search output format: text or json." in
    Arg.(value & opt string "text" & info [ "format" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Evaluate candidates on this many domains in parallel (default: \
       the FINEPAR_DOMAINS environment variable, else the machine's \
       core count minus one; 1 is fully sequential).  Results are \
       byte-identical at every -j."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)
  in
  let search ~name ~scope ~fuzz_corpus ~params ~engine ~via ~jobs ~format
      ~output =
    let targets =
      (match scope with
      | "registry" -> Tune_search.registry_targets ()
      | "loops" -> Tune_search.corpus_targets ()
      | "all" ->
        Tune_search.registry_targets () @ Tune_search.corpus_targets ()
      | other ->
        Fmt.epr "unknown scope %s (expected registry, loops or all)@." other;
        exit 1)
      @
      match fuzz_corpus with
      | None -> []
      | Some dir -> Tune_search.fuzz_targets ~dir
    in
    let targets =
      match name with
      | None -> targets
      | Some n -> (
        match
          List.filter
            (fun (t : Tune_search.target) -> String.equal t.Tune_search.t_name n)
            targets
        with
        | [] ->
          Fmt.epr "no search target named %s in scope %s@." n scope;
          exit 1
        | ts -> ts)
    in
    let t0 = Unix.gettimeofday () in
    let rows =
      let pool = Finepar_exec.Pool.create ?domains:jobs () in
      with_evaluator ~pool ~engine via (fun evaluator ->
          Tune_search.run params evaluator targets)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let evaluated =
      List.fold_left
        (fun a (r : Tune_search.row) -> a + r.Tune_search.r_evaluated)
        0 rows
    in
    (* Wall-clock throughput is machine-dependent: stderr only, so the
       stdout table/JSON stays byte-comparable across runs. *)
    Fmt.epr "search: %d configurations in %.2fs%s@." evaluated dt
      (if dt > 0. then
         Fmt.str " (%.1f configs/sec)" (float_of_int evaluated /. dt)
       else "");
    match format with
    | "text" ->
      with_output output (fun oc ->
          Fmt.pf
            (Format.formatter_of_out_channel oc)
            "%a@?" Tune_search.pp_table rows)
    | "json" ->
      with_output output (fun oc ->
          Finepar_telemetry.Json.to_channel oc
            (Tune_search.to_json ~params rows);
          output_char oc '\n')
    | other ->
      Fmt.epr "unknown format %s (expected text or json)@." other;
      exit 1
  in
  let classic ~name ~machine ~cores ~engine ~via =
    let e = find_entry name in
    let tuned =
      with_evaluator ~engine via @@ fun evaluator ->
      Job.autotune evaluator
        (Job.make ~machine ~workload:e.Registry.workload ~cores
           e.Registry.kernel)
    in
    Fmt.pr "%a" Tune_search.pp_autotune tuned
  in
  let run name do_search scope fuzz_corpus beam generations budget format
      jobs cores latency queue_len engine via trace_out profile output =
    with_tracing ~trace_out ~profile @@ fun () ->
    let machine = machine_of ~latency ~queue_len () in
    if do_search then
      let params =
        { Tune_search.cores; machine; beam; generations; budget }
      in
      search ~name ~scope ~fuzz_corpus ~params ~engine ~via ~jobs ~format
        ~output
    else
      match name with
      | Some name -> classic ~name ~machine ~cores ~engine ~via
      | None ->
        Fmt.epr "pass -k KERNEL (or --search)@.";
        exit 2
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:
         "Compile multiple code versions and keep the fastest (Section \
          III-I); with --search, a generational beam search over the \
          full configuration space across the kernel corpus")
    Term.(
      const run $ kernel_opt_arg $ search_arg $ scope_arg $ fuzz_corpus_arg
      $ beam_arg $ generations_arg $ budget_arg $ format_arg $ jobs_arg
      $ cores_arg $ latency_arg $ queue_len_arg $ engine_arg $ via_arg
      $ trace_out_arg $ profile_arg $ output_arg)

let fuzz_cmd =
  let cases_arg =
    let doc = "Number of random cases to generate and check." in
    Arg.(value & opt int 200 & info [ "cases" ] ~doc)
  in
  let seconds_arg =
    let doc =
      "Wall-clock budget in seconds; generation stops at whichever of \
       --cases and --seconds is hit first."
    in
    Arg.(value & opt (some float) None & info [ "seconds" ] ~doc)
  in
  let seed_arg =
    let doc =
      "Root seed.  Case $(i,i) uses the derived seed printed on failure, \
       so any failure reproduces from its seed alone."
    in
    Arg.(value & opt int 1 & info [ "seed" ] ~doc)
  in
  let out_dir_arg =
    let doc = "Directory to write shrunk reproducers into (created)." in
    Arg.(value & opt (some string) None & info [ "out-dir" ] ~doc)
  in
  let summary_arg =
    let doc = "Write a JSON campaign summary to this file ('-' for stdout)." in
    Arg.(value & opt (some string) None & info [ "summary" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay every reproducer in this corpus directory instead of \
       generating new cases."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Check cases on this many domains in parallel (default: the \
       FINEPAR_DOMAINS environment variable, else the machine's core \
       count minus one; 1 is fully sequential).  The summary is \
       byte-identical at every -j for a fixed --cases count."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)
  in
  let replay_via ~engine via dir =
    (* Cache-backed replay: each reproducer becomes one run request.
       The engine is not part of the store key, so a repeated replay —
       under either engine — is answered entirely from the store.
       Bit-exactness vs the reference evaluator is checked on
       every fresh computation; this path does not re-run the other
       oracles (determinism, telemetry invariants) — the default replay
       does. *)
    with_via via @@ fun ~exec ~counters ->
    let files = Finepar_fuzz.Corpus.files dir in
    let jobs =
      List.map
        (fun path ->
          match Finepar_fuzz.Corpus.load_file path with
          | entry ->
            (path, Ok (case_job entry.Finepar_fuzz.Corpus.case))
          | exception e -> (path, Error (Printexc.to_string e)))
        files
    in
    let requests =
      List.filter_map
        (function
          | _, Ok job -> Some (Wire.Run { job; engine })
          | _, Error _ -> None)
        jobs
    in
    let responses = ref (exec requests) in
    let next_response () =
      match !responses with
      | r :: rest ->
        responses := rest;
        r
      | [] -> Wire.Error "missing response"
    in
    let failed = ref 0 in
    List.iter
      (fun (path, job) ->
        match job with
        | Error msg ->
          incr failed;
          Fmt.pr "FAIL %s: unreadable reproducer: %s@." path msg
        | Ok _ -> (
          match next_response () with
          | Wire.Run_result _ -> Fmt.pr "PASS %s@." path
          | Wire.Error msg ->
            incr failed;
            Fmt.pr "FAIL %s: %s@." path msg
          | _ ->
            incr failed;
            Fmt.pr "FAIL %s: unexpected response kind@." path))
      jobs;
    Fmt.pr "replayed %d reproducers, %d failing@." (List.length jobs) !failed;
    pp_cache_counters (counters ());
    if !failed > 0 then exit 1
  in
  let run cases seconds seed out_dir summary replay via jobs engine trace_out
      profile =
    with_tracing ~trace_out ~profile @@ fun () ->
    match replay with
    | Some dir when via <> None -> replay_via ~engine (Option.get via) dir
    | Some dir ->
      let replays = Finepar_fuzz.Corpus.replay_dir ~engine dir in
      let failed = ref 0 in
      List.iter
        (fun (r : Finepar_fuzz.Corpus.replay) ->
          match r.Finepar_fuzz.Corpus.outcome with
          | Ok (Finepar_fuzz.Oracle.Pass _) ->
            Fmt.pr "PASS %s@." r.Finepar_fuzz.Corpus.entry.Finepar_fuzz.Corpus.path
          | Ok (Finepar_fuzz.Oracle.Fail f) ->
            incr failed;
            Fmt.pr "FAIL %s: %a@."
              r.Finepar_fuzz.Corpus.entry.Finepar_fuzz.Corpus.path
              Finepar_fuzz.Oracle.pp_failure f
          | Error msg ->
            incr failed;
            Fmt.pr "FAIL %s: unreadable reproducer: %s@."
              r.Finepar_fuzz.Corpus.entry.Finepar_fuzz.Corpus.path msg)
        replays;
      Fmt.pr "replayed %d reproducers, %d failing@." (List.length replays)
        !failed;
      if !failed > 0 then exit 1
    | None ->
      if via <> None then
        Fmt.epr "--via only applies to --replay; running a direct campaign@.";
      let pool = Finepar_exec.Pool.create ?domains:jobs () in
      let s =
        Finepar_fuzz.Driver.run ~engine ?out_dir ?seconds ~pool ~cases ~seed ()
      in
      List.iter
        (fun (f : Finepar_fuzz.Driver.failure_report) ->
          Fmt.pr "FAIL seed %d: %a@." f.Finepar_fuzz.Driver.case_seed
            Finepar_fuzz.Oracle.pp_failure f.Finepar_fuzz.Driver.failure;
          Fmt.pr "  shrunk to %d statements%a@."
            (Finepar_fuzz.Shrink.stmt_count
               f.Finepar_fuzz.Driver.shrunk.Finepar_fuzz.Gen.kernel)
            Fmt.(option (fun ppf p -> Fmt.pf ppf ", reproducer %s" p))
            f.Finepar_fuzz.Driver.repro_path)
        s.Finepar_fuzz.Driver.failures;
      Fmt.pr
        "fuzz: %d cases (seed %d), %d passed, %d failed, %.1fs@."
        s.Finepar_fuzz.Driver.cases_run s.Finepar_fuzz.Driver.root_seed
        s.Finepar_fuzz.Driver.passed s.Finepar_fuzz.Driver.failed
        s.Finepar_fuzz.Driver.elapsed;
      (* Wall-clock throughput stays out of the JSON summary (which is
         deterministic); the nightly workflow scrapes this line. *)
      Fmt.pr "throughput: %.1f cases/sec on %d domain(s)@."
        (float_of_int s.Finepar_fuzz.Driver.cases_run
        /. Float.max 1e-9 s.Finepar_fuzz.Driver.elapsed)
        (Finepar_exec.Pool.domains pool);
      (* Scheduling-dependent pool stats are opt-in (profiling flags)
         so the default output — and the JSON the CI diffs across -j —
         stays deterministic. *)
      let pool_stats =
        if tracing_enabled ~trace_out ~profile then
          Some (Finepar_exec.Pool.stats pool)
        else None
      in
      Option.iter
        (fun (p : Finepar_exec.Pool.stats) ->
          Fmt.pr
            "pool: %d domains, %d tasks, %d steals (%d failed), busy \
             %.3fs, idle %.3fs, imbalance %.2f@."
            p.Finepar_exec.Pool.domains p.Finepar_exec.Pool.tasks
            p.Finepar_exec.Pool.steals p.Finepar_exec.Pool.steal_failures
            p.Finepar_exec.Pool.busy_seconds p.Finepar_exec.Pool.idle_seconds
            p.Finepar_exec.Pool.imbalance)
        pool_stats;
      Fmt.pr
        "coverage: %d with ifs, %d indirect, %d int-ops; %d speculated, %d \
         multi-core, %d smt@."
        s.Finepar_fuzz.Driver.kernels_with_ifs
        s.Finepar_fuzz.Driver.kernels_with_indirect
        s.Finepar_fuzz.Driver.kernels_with_int_ops
        s.Finepar_fuzz.Driver.speculated s.Finepar_fuzz.Driver.multi_core
        s.Finepar_fuzz.Driver.smt_cases;
      (match summary with
      | None -> ()
      | Some file ->
        let json = Finepar_fuzz.Driver.summary_to_json ?pool:pool_stats s in
        if String.equal file "-" then print_endline json
        else begin
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc json;
              output_char oc '\n');
          Fmt.pr "wrote %s@." file
        end);
      if s.Finepar_fuzz.Driver.failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random well-typed kernels and \
          configurations checked for bit-exactness, determinism, \
          telemetry invariants and cross-core agreement; failures are \
          shrunk to minimal reproducers")
    Term.(
      const run $ cases_arg $ seconds_arg $ seed_arg $ out_dir_arg
      $ summary_arg $ replay_arg $ via_arg $ jobs_arg $ engine_arg
      $ trace_out_arg $ profile_arg)

let verify_cmd =
  let module Verify = Finepar_verify.Verify in
  let module Mutate = Finepar_fuzz.Mutate in
  let kernel_opt_arg =
    let doc = "Verify this kernel (see `finepar list`)." in
    Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~doc)
  in
  let all_arg =
    let doc = "Verify every registry kernel at 1, 2 and 4 cores." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let corpus_arg =
    let doc =
      "Compile and verify every fuzz reproducer in this corpus \
       directory, each under its own recorded configuration."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~doc)
  in
  let smoke_arg =
    let doc =
      "Mutation smoke test: apply each comm-corruption rule to every \
       registry kernel and require the verifier to reject every \
       corrupted program statically."
    in
    Arg.(value & flag & info [ "mutation-smoke" ] ~doc)
  in
  let failed = ref 0 in
  let report_ok what (r : Verify.result) =
    Fmt.pr "OK   %-28s %d queues, %d comm ops@." what r.Verify.queues_checked
      r.Verify.ops_checked
  in
  let report_fail what violations =
    incr failed;
    Fmt.pr "FAIL %s@." what;
    List.iter (fun v -> Fmt.pr "     %a@." Verify.pp_violation v) violations
  in
  (* Compile (which runs the verifier as a pass) and re-run the verifier
     standalone for its statistics. *)
  let verify_kernel what config (k : Finepar_ir.Kernel.t) =
    match Compiler.compile config k with
    | c ->
      let r =
        Verify.run ~plan:c.Compiler.comm ~mode:config.Compiler.comm_mode
          ~queue_len:config.Compiler.machine.Finepar_machine.Config.queue_len
          c.Compiler.code.Finepar_codegen.Lower.program
      in
      if Verify.ok r then report_ok what r
      else report_fail what r.Verify.violations
    | exception Verify.Rejected (_, violations) -> report_fail what violations
  in
  let verify_registry ~latency ~queue_len ~speculation ~throughput name =
    let e = find_entry name in
    List.iter
      (fun cores ->
        let config =
          {
            (Compiler.default_config ~cores ()) with
            Compiler.speculation;
            throughput;
            machine = machine_of ~latency ~queue_len ();
          }
        in
        verify_kernel
          (Fmt.str "%s cores=%d" name cores)
          config e.Registry.kernel)
      [ 1; 2; 4 ]
  in
  let verify_corpus ~engine dir =
    let files = Finepar_fuzz.Corpus.files dir in
    if files = [] then begin
      incr failed;
      Fmt.pr "FAIL corpus %s: no reproducers found@." dir
    end;
    List.iter
      (fun path ->
        match Finepar_fuzz.Corpus.load_file path with
        | entry ->
          let case = entry.Finepar_fuzz.Corpus.case in
          verify_kernel path case.Finepar_fuzz.Gen.config
            case.Finepar_fuzz.Gen.kernel;
          (* Dynamic cross-check: the reproducer must still pass the
             full oracle set under the selected simulation engine. *)
          (match Finepar_fuzz.Oracle.check ~engine case with
          | Finepar_fuzz.Oracle.Pass _ ->
            Fmt.pr "OK   %-28s dynamic replay (%s engine)@." path
              (Finepar_machine.Engine.to_string engine)
          | Finepar_fuzz.Oracle.Fail f ->
            incr failed;
            Fmt.pr "FAIL %s: dynamic replay (%s engine): %a@." path
              (Finepar_machine.Engine.to_string engine)
              Finepar_fuzz.Oracle.pp_failure f)
        | exception e ->
          incr failed;
          Fmt.pr "FAIL %s: unreadable reproducer: %s@." path
            (Printexc.to_string e))
      files
  in
  let mutation_smoke ~latency ~queue_len () =
    (* Single-core compiles have no queues, so probe at 2 and 4 cores.
       Every rule must find at least one applicable site, and the
       verifier must reject every corrupted program. *)
    List.iter
      (fun rule ->
        let name = Mutate.comm_rule_name rule in
        let applied = ref 0 and caught = ref 0 in
        List.iter
          (fun (e : Registry.entry) ->
            List.iter
              (fun cores ->
                let config =
                  {
                    (Compiler.default_config ~cores ()) with
                    Compiler.machine = machine_of ~latency ~queue_len ();
                  }
                in
                let c = Compiler.compile config e.Registry.kernel in
                match Mutate.corrupt rule c with
                | None -> ()
                | Some c' ->
                  incr applied;
                  let r =
                    Verify.run ~plan:c'.Compiler.comm ~queue_len
                      c'.Compiler.code.Finepar_codegen.Lower.program
                  in
                  if not (Verify.ok r) then incr caught
                  else begin
                    incr failed;
                    Fmt.pr "FAIL smoke %s: %s cores=%d corrupted but accepted@."
                      name e.Registry.kernel.Finepar_ir.Kernel.name cores
                  end)
              [ 2; 4 ])
          Registry.all;
        if !applied = 0 then begin
          incr failed;
          Fmt.pr "FAIL smoke %s: rule never found an applicable site@." name
        end
        else
          Fmt.pr "%s %-28s caught %d/%d corruptions@."
            (if !caught = !applied then "OK  " else "FAIL")
            (Fmt.str "smoke %s" name) !caught !applied)
      [ Mutate.Drop_dequeue; Mutate.Swap_endpoints; Mutate.Reorder_enqueue ]
  in
  let run kernel all corpus smoke cores latency queue_len speculation
      throughput engine trace_out profile =
    with_tracing ~trace_out ~profile @@ fun () ->
    failed := 0;
    let selected = ref false in
    (match kernel with
    | Some name ->
      selected := true;
      let e = find_entry name in
      let config =
        {
          (Compiler.default_config ~cores ()) with
          Compiler.speculation;
          throughput;
          machine = machine_of ~latency ~queue_len ();
        }
      in
      verify_kernel (Fmt.str "%s cores=%d" name cores) config e.Registry.kernel
    | None -> ());
    if all then begin
      selected := true;
      List.iter
        (fun (e : Registry.entry) ->
          verify_registry ~latency ~queue_len ~speculation ~throughput
            e.Registry.kernel.Finepar_ir.Kernel.name)
        Registry.all
    end;
    (match corpus with
    | Some dir ->
      selected := true;
      verify_corpus ~engine dir
    | None -> ());
    if smoke then begin
      selected := true;
      mutation_smoke ~latency ~queue_len ()
    end;
    if not !selected then begin
      Fmt.epr "nothing to verify: pass -k, --all, --corpus or --mutation-smoke@.";
      exit 2
    end;
    if !failed > 0 then begin
      Fmt.pr "@.verify: %d failure(s)@." !failed;
      exit 1
    end
    else Fmt.pr "@.verify: all checks passed@."
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Static queue-protocol verification: per-queue balance and \
          typing, endpoint agreement, capacity-bounded deadlock \
          freedom, and plan conformance — over kernels, a fuzz corpus, \
          or deliberately corrupted programs (--mutation-smoke)")
    Term.(
      const run $ kernel_opt_arg $ all_arg $ corpus_arg $ smoke_arg
      $ cores_arg $ latency_arg $ queue_len_arg $ speculation_arg
      $ throughput_arg $ engine_arg $ trace_out_arg $ profile_arg)

let profile_cmd =
  let format_arg =
    let doc = "Output format: text (profile tree + hot list) or json." in
    Arg.(value & opt string "text" & info [ "format" ] ~doc)
  in
  let run name cores latency queue_len speculation throughput engine format
      output trace_out =
    let (r, _), tracer =
      with_host_tracer @@ fun () ->
      compile_and_sim ~name ~cores ~latency ~queue_len ~speculation
        ~throughput ~tracing:false ~engine ()
    in
    let tree =
      Finepar_telemetry.Profile_tree.of_spans
        (Finepar_telemetry.Tracer.spans tracer)
    in
    Option.iter (write_chrome_trace tracer) trace_out;
    match format with
    | "text" ->
      with_output output (fun oc ->
          let ppf = Format.formatter_of_out_channel oc in
          Fmt.pf ppf "kernel %s: %d cycles on %d cores (%s engine)@.@." name
            r.Runner.cycles cores
            (Finepar_machine.Engine.to_string engine);
          Fmt.pf ppf "%a@."
            (fun ppf t -> Finepar_telemetry.Profile_tree.pp ppf t)
            tree)
    | "json" ->
      with_output output (fun oc ->
          Finepar_telemetry.Json.to_channel oc
            (Finepar_telemetry.Profile_tree.to_json tree);
          output_char oc '\n')
    | other ->
      Fmt.epr "unknown format %s (expected text or json)@." other;
      exit 1
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile and simulate one kernel under the host tracer and \
          print where the host time went: a self-time/total-time span \
          tree (compiler passes under their compile, the simulator run) \
          plus the hottest spans")
    Term.(
      const run $ kernel_arg $ cores_arg $ latency_arg $ queue_len_arg
      $ speculation_arg $ throughput_arg $ engine_arg $ format_arg
      $ output_arg $ trace_out_arg)

(* ------------------------------------------------------------------ *)
(* The compile-and-simulate service. *)

let serve_cmd =
  let socket_arg =
    let doc = "Serve a length-prefixed frame protocol on this Unix domain \
               socket (created; a stale file is replaced)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~doc ~docv:"PATH")
  in
  let stdio_arg =
    let doc = "Serve frames on stdin/stdout instead of a socket — the CI \
               pipeline fallback."
    in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let store_arg =
    let doc = "Directory of the persistent content-addressed result store \
               (created)."
    in
    Arg.(
      required & opt (some string) None & info [ "store" ] ~doc ~docv:"DIR")
  in
  let jobs_arg =
    let doc = "Fan cache misses out over this many domains (default: the \
               FINEPAR_DOMAINS environment variable, else the machine's \
               core count minus one).  Responses are byte-identical at \
               every -j."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)
  in
  let max_entries_arg =
    let doc = "Evict the oldest store entries (by mtime) past this count." in
    Arg.(value & opt (some int) None & info [ "max-entries" ] ~doc)
  in
  let run socket stdio store jobs max_entries =
    let cache = Svc_cache.create ?max_entries store in
    let pool = Finepar_exec.Pool.create ?domains:jobs () in
    let server = Svc_server.create ~pool ~cache () in
    (match (socket, stdio) with
    | Some path, false ->
      Fmt.epr "finepar serve: socket %s, store %s, %d domain(s)@." path store
        (Finepar_exec.Pool.domains pool);
      Svc_server.serve_socket server path
    | None, true -> Svc_server.serve_channels server stdin stdout
    | _ ->
      Fmt.epr "pass exactly one of --socket PATH or --stdio@.";
      exit 2);
    Fmt.epr "cache stats: %s@."
      (Finepar_telemetry.Json.to_string (Svc_cache.stats_json cache))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running compile-and-simulate server: batched \
          compile/run requests over a Unix domain socket (or \
          stdin/stdout), fanned out over a domain pool and answered \
          from a persistent content-addressed result cache")
    Term.(
      const run $ socket_arg $ stdio_arg $ store_arg $ jobs_arg
      $ max_entries_arg)

let request_cmd =
  let file_arg =
    let doc = "Batch request file ('-' for stdin)." in
    Arg.(value & pos 0 string "-" & info [] ~doc ~docv:"FILE")
  in
  let emit_arg =
    let doc =
      "Instead of executing, write a batch request file covering the \
       kernel registry (and, with --corpus, the fuzz corpus), one run \
       request per job under the default engine, and exit."
    in
    Arg.(value & flag & info [ "emit" ] ~doc)
  in
  let corpus_arg =
    let doc = "Also emit one run request per fuzz reproducer in this \
               directory."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~doc ~docv:"DIR")
  in
  let jobs_arg =
    let doc = "Domains for the in-process store: path (socket servers \
               control their own -j)."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)
  in
  let stats_arg =
    let doc = "Print cache hit/miss counters to stderr after executing." in
    Arg.(value & flag & info [ "stats" ] ~doc)
  in
  let emit ~cores ~latency ~queue_len ~corpus output =
    let machine = machine_of ~latency ~queue_len () in
    let run job = Wire.Run { job; engine = Finepar_machine.Engine.default } in
    let registry_reqs =
      List.map
        (fun (e : Registry.entry) ->
          run
            (Job.make ~machine ~workload:e.Registry.workload ~cores
               e.Registry.kernel))
        Registry.all
    in
    let corpus_reqs =
      match corpus with
      | None -> []
      | Some dir ->
        List.map
          (fun path ->
            let entry = Finepar_fuzz.Corpus.load_file path in
            run (case_job entry.Finepar_fuzz.Corpus.case))
          (Finepar_fuzz.Corpus.files dir)
    in
    let batch = Wire.batch_to_string (registry_reqs @ corpus_reqs) in
    with_output output (fun oc ->
        output_string oc batch;
        output_char oc '\n')
  in
  let read_all ic =
    let buf = Buffer.create 65536 in
    (try
       while true do
         Buffer.add_channel buf ic 65536
       done
     with End_of_file -> ());
    Buffer.contents buf
  in
  let execute ~via ~jobs ~stats file output =
    let payload =
      String.trim
        (if String.equal file "-" then read_all stdin
         else begin
           let ic = open_in_bin file in
           Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> read_all ic)
         end)
    in
    (* One session: the frame, then (for --stats) the counters over the
       same store handle or the same connection. *)
    let pool = Finepar_exec.Pool.create ?domains:jobs () in
    match
      Svc_client.with_session ~pool via (fun session ->
          let response = Svc_client.session_frame session payload in
          with_output output (fun oc ->
              output_string oc response;
              output_char oc '\n');
          if stats then pp_cache_counters (Svc_client.session_counters session))
    with
    | () -> ()
    | exception Failure msg ->
      Fmt.epr "%s@." msg;
      exit 1
  in
  let run file emit_flag corpus via jobs stats cores latency queue_len output =
    if emit_flag then emit ~cores ~latency ~queue_len ~corpus output
    else
      match via with
      | Some via -> execute ~via ~jobs ~stats file output
      | None ->
        Fmt.epr "pass --via=store:DIR or --via=socket:PATH (or --emit)@.";
        exit 2
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Submit a batch request file to the compile-and-simulate \
          service (one frame out, one frame in; the response payload is \
          written verbatim, so identical batches produce byte-identical \
          files, cached or not) — or generate such a file with --emit")
    Term.(
      const run $ file_arg $ emit_arg $ corpus_arg $ via_arg
      $ jobs_arg $ stats_arg $ cores_arg $ latency_arg $ queue_len_arg
      $ output_arg)

let classify_cmd =
  let run () =
    List.iter
      (fun (k : Finepar_ir.Kernel.t) ->
        Fmt.pr "%-18s %s@." k.Finepar_ir.Kernel.name
          (Finepar_characterize.Classify.category_name
             (Finepar_characterize.Classify.classify k)))
      Corpus.all_hot_loops;
    Fmt.pr "@.%a@." Finepar_characterize.Classify.pp_funnel
      (Finepar_characterize.Classify.funnel Corpus.all_hot_loops)
  in
  Cmd.v
    (Cmd.info "classify" ~doc:"Characterize all 51 hot loops (Section IV)")
    Term.(const run $ const ())

let () =
  let doc =
    "fine-grained parallelization of sequential loops with hardware queues"
  in
  let info = Cmd.info "finepar" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; run_cmd; verify_cmd; show_cmd; trace_cmd; report_cmd;
            sweep_cmd; autotune_cmd; classify_cmd; fuzz_cmd; profile_cmd;
            serve_cmd; request_cmd;
          ]))

(* Telemetry tests: the primitives (ring buffer, histograms, JSON,
   Chrome trace events, pass timers) and the simulator
   invariants they are meant to uphold — exhaustive per-core cycle
   accounting, queue occupancy bounds, histogram conservation, and
   fiber-level attribution summing to the run's total cycles. *)

module T = Finepar_telemetry
open Finepar

(* ------------------------------------------------------------------ *)
(* Ring buffer.                                                        *)

let test_ring_basic () =
  let r = T.Ring.create ~capacity:3 in
  Alcotest.(check bool) "fresh ring empty" true (T.Ring.is_empty r);
  T.Ring.push r 1;
  T.Ring.push r 2;
  Alcotest.(check (list int)) "oldest first" [ 1; 2 ] (T.Ring.to_list r);
  T.Ring.push r 3;
  T.Ring.push r 4;
  Alcotest.(check (list int)) "overwrites oldest" [ 2; 3; 4 ]
    (T.Ring.to_list r);
  Alcotest.(check int) "one dropped" 1 (T.Ring.dropped r);
  Alcotest.(check int) "length capped" 3 (T.Ring.length r);
  T.Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (T.Ring.to_list r)

let test_ring_zero_capacity () =
  let r = T.Ring.create ~capacity:0 in
  T.Ring.push r "x";
  T.Ring.push r "y";
  Alcotest.(check (list string)) "keeps nothing" [] (T.Ring.to_list r);
  Alcotest.(check int) "counts drops" 2 (T.Ring.dropped r)

let test_ring_fold_order () =
  let r = T.Ring.create ~capacity:4 in
  for i = 1 to 9 do
    T.Ring.push r i
  done;
  Alcotest.(check (list int)) "last four, in order" [ 6; 7; 8; 9 ]
    (List.rev (T.Ring.fold (fun acc x -> x :: acc) [] r))

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)

let test_histogram_buckets () =
  let h = T.Histogram.create ~bounds:[| 1; 2; 4 |] in
  List.iter (T.Histogram.observe h) [ 0; 1; 2; 3; 4; 5; 100 ];
  Alcotest.(check int) "count" 7 (T.Histogram.count h);
  Alcotest.(check int) "sum" 115 (T.Histogram.sum h);
  Alcotest.(check (list (pair int int)))
    "bucket layout"
    [ (1, 2); (2, 1); (4, 2); (max_int, 2) ]
    (T.Histogram.buckets h);
  Alcotest.(check int) "bucket total = count" (T.Histogram.count h)
    (T.Histogram.bucket_total h);
  Alcotest.(check (option int)) "min" (Some 0) (T.Histogram.min_value h);
  Alcotest.(check (option int)) "max" (Some 100) (T.Histogram.max_value h)

let test_histogram_bounds_generators () =
  Alcotest.(check (array int)) "exponential" [| 1; 2; 4; 8 |]
    (T.Histogram.exponential_bounds 4);
  Alcotest.(check (array int)) "linear" [| 1; 2; 3 |]
    (T.Histogram.linear_bounds 3);
  Alcotest.check_raises "empty bounds rejected"
    (Invalid_argument "Histogram.create: no buckets") (fun () ->
      ignore (T.Histogram.create ~bounds:[||]))

let test_histogram_observe_qcheck =
  QCheck.Test.make ~name:"histogram conserves observations" ~count:200
    QCheck.(list (int_bound 64))
    (fun xs ->
      let h = T.Histogram.create ~bounds:(T.Histogram.exponential_bounds 4) in
      List.iter (T.Histogram.observe h) xs;
      T.Histogram.count h = List.length xs
      && T.Histogram.bucket_total h = List.length xs
      && T.Histogram.sum h = List.fold_left ( + ) 0 xs)

(* ------------------------------------------------------------------ *)
(* Stall reasons.                                                      *)

let test_stall_classes () =
  Alcotest.(check int) "three classes" 3 T.Stall.n_classes;
  let all = [ T.Stall.Operand; T.Stall.Queue_full 3; T.Stall.Queue_empty 7 ] in
  Alcotest.(check (list int)) "distinct class indices" [ 0; 1; 2 ]
    (List.map T.Stall.class_index all);
  Alcotest.(check (option int)) "queue of full" (Some 3)
    (T.Stall.queue_of (T.Stall.Queue_full 3));
  Alcotest.(check (option int)) "operand has no queue" None
    (T.Stall.queue_of T.Stall.Operand);
  Alcotest.(check bool) "equal on same queue" true
    (T.Stall.equal (T.Stall.Queue_empty 1) (T.Stall.Queue_empty 1));
  Alcotest.(check bool) "distinct queues differ" false
    (T.Stall.equal (T.Stall.Queue_empty 1) (T.Stall.Queue_empty 2))

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let test_json_escaping () =
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\n\\u0007\""
    (T.Json.to_string (T.Json.String "a\"b\\c\n\007"));
  Alcotest.(check string) "non-finite floats are null" "[null,null]"
    (T.Json.to_string (T.Json.List [ T.Json.Float nan; T.Json.Float infinity ]));
  Alcotest.(check string) "object"
    "{\"a\":1,\"b\":[true,null]}"
    (T.Json.to_string
       (T.Json.Obj
          [
            ("a", T.Json.Int 1);
            ("b", T.Json.List [ T.Json.Bool true; T.Json.Null ]);
          ]))

(* ------------------------------------------------------------------ *)
(* Chrome trace events.                                                *)

let test_chrome_trace_shapes () =
  let s =
    T.Chrome_trace.to_string
      [
        T.Chrome_trace.Process_name { pid = 0; name = "cores" };
        T.Chrome_trace.Complete
          {
            name = "fiber 1";
            cat = "issue";
            pid = 0;
            tid = 2;
            ts = 10;
            dur = 5;
            args = [];
          };
        T.Chrome_trace.Counter
          { name = "q0"; pid = 1; ts = 3; values = [ ("occupancy", 4) ] };
      ]
  in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %s" needle)
        true (contains needle))
    [
      "\"traceEvents\"";
      "\"ph\":\"M\"";
      "\"ph\":\"X\"";
      "\"ph\":\"C\"";
      "\"dur\":5";
      "\"occupancy\":4";
    ]

(* ------------------------------------------------------------------ *)
(* Simulator invariants (satellite: queue_stats / core_stats).         *)

(* [sim_of] and [check_accounting] are shared with the engine suite via
   [Helpers]. *)
let sim_of ~cores name = Helpers.sim_of ~cores name
let check_accounting = Helpers.check_accounting

let test_cycle_accounting () =
  List.iter
    (fun (name, cores) ->
      let _, sim = sim_of ~cores name in
      check_accounting name sim)
    [ ("lammps-1", 4); ("lammps-3", 2); ("sphot-1", 4); ("umt2k-6", 4) ]

let test_queue_invariants () =
  let module Sim = Finepar_machine.Sim in
  let c, sim = sim_of ~cores:4 "lammps-3" in
  let queue_len =
    c.Compiler.config.Compiler.machine.Finepar_machine.Config.queue_len
  in
  Alcotest.(check bool) "has queues" true (Array.length sim.Sim.queues > 0);
  Array.iteri
    (fun i (q : Sim.queue_state) ->
      Alcotest.(check bool)
        (Printf.sprintf "queue %d: occupancy within capacity" i)
        true
        (q.Sim.max_occupancy >= 0 && q.Sim.max_occupancy <= queue_len);
      Alcotest.(check int)
        (Printf.sprintf "queue %d: histogram total = transfers" i)
        q.Sim.transfers
        (T.Histogram.bucket_total q.Sim.occupancy);
      match T.Histogram.max_value q.Sim.occupancy with
      | None -> ()
      | Some m ->
        Alcotest.(check int)
          (Printf.sprintf "queue %d: histogram max = max occupancy" i)
          q.Sim.max_occupancy m)
    sim.Sim.queues;
  (* queue_stats mirrors the queue table. *)
  List.iteri
    (fun i (_, transfers, max_occ) ->
      Alcotest.(check int) "queue_stats transfers" sim.Sim.queues.(i).Sim.transfers
        transfers;
      Alcotest.(check int) "queue_stats occupancy"
        sim.Sim.queues.(i).Sim.max_occupancy max_occ)
    (Sim.queue_stats sim)

let test_stall_histograms () =
  let module Sim = Finepar_machine.Sim in
  let _, sim = sim_of ~cores:4 "lammps-3" in
  Array.iteri
    (fun i s ->
      let h = sim.Sim.stall_hist.(i) in
      Alcotest.(check int)
        (Printf.sprintf "core %d: episode durations sum to stall cycles" i)
        (Sim.stall_total s) (T.Histogram.sum h))
    sim.Sim.stats

let test_fiber_attribution () =
  let module Sim = Finepar_machine.Sim in
  List.iter
    (fun (name, cores) ->
      let _, sim = sim_of ~cores name in
      let attributed =
        List.fold_left
          (fun acc (_, issue, stall) -> acc + issue + stall)
          0 (Sim.fiber_counters sim)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: fiber cycles + waits = cycles x cores" name)
        (sim.Sim.cycles * Array.length sim.Sim.stats)
        (attributed + Sim.wait_cycles sim))
    [ ("lammps-1", 4); ("lammps-3", 4); ("sphot-1", 2) ]

let test_trace_bounded () =
  let module Sim = Finepar_machine.Sim in
  let e = Option.get (Finepar_kernels.Registry.find "lammps-3") in
  let c =
    Compiler.compile
      (Compiler.default_config ~cores:4 ())
      e.Finepar_kernels.Registry.kernel
  in
  let _, sim =
    Runner.run_with_sim ~tracing:true ~trace_capacity:128
      ~workload:e.Finepar_kernels.Registry.workload c
  in
  Alcotest.(check int) "ring respects capacity" 128
    (List.length (Sim.events sim));
  Alcotest.(check bool) "drops are counted" true (Sim.dropped_events sim > 0);
  let untraced =
    let _, s = Runner.run_with_sim ~workload:e.Finepar_kernels.Registry.workload c in
    Sim.events s
  in
  Alcotest.(check int) "tracing off keeps nothing" 0 (List.length untraced)

(* ------------------------------------------------------------------ *)
(* Report.                                                             *)

let test_report_invariants () =
  let e = Option.get (Finepar_kernels.Registry.find "lammps-1") in
  let c =
    Compiler.compile
      (Compiler.default_config ~cores:4 ())
      e.Finepar_kernels.Registry.kernel
  in
  let r = Runner.run ~workload:e.Finepar_kernels.Registry.workload c in
  let t = r.Runner.telemetry in
  Alcotest.(check string) "kernel name" "lammps-1" t.Report.kernel;
  Alcotest.(check int) "total = cycles x cores" (t.Report.cycles * t.Report.n_cores)
    t.Report.total_core_cycles;
  let attributed =
    List.fold_left
      (fun acc (f : Report.fiber_row) -> acc + f.Report.issue + f.Report.stall)
      0 t.Report.fibers
  in
  Alcotest.(check int) "attribution sums to total"
    t.Report.total_core_cycles
    (attributed + t.Report.wait_cycles);
  List.iter
    (fun (f : Report.fiber_row) ->
      if f.Report.fiber >= 0 then
        Alcotest.(check bool)
          (Printf.sprintf "fiber %d placed on a core" f.Report.fiber)
          true
          (f.Report.partition >= 0 && f.Report.partition < t.Report.n_cores))
    t.Report.fibers

(* [Report.to_csv] over the registry: 18 kernels x 4 configurations (2
   and 4 cores on queues, 4 cores on the shared cache, 4 cores at issue
   width 2) x 3 placements = 216 reports. *)
let csv_corpus =
  lazy
    (let configs =
       let c ?(comm_mode = Finepar_transform.Comm.Queues) ?(issue_width = 1)
           cores =
         {
           (Compiler.default_config ~cores ()) with
           Compiler.comm_mode;
           machine = { Finepar_machine.Config.default with issue_width };
         }
       in
       [ c 2; c 4; c ~comm_mode:Finepar_transform.Comm.Shared_cache 4;
         c ~issue_width:2 4 ]
     in
     let buf = Buffer.create (1 lsl 20) in
     List.iter
       (fun (e : Finepar_kernels.Registry.entry) ->
         List.iter
           (fun config ->
             List.iter
               (fun placement ->
                 let job =
                   {
                     (Job.make ~config
                        ~workload:e.Finepar_kernels.Registry.workload
                        ~cores:config.Compiler.cores
                        e.Finepar_kernels.Registry.kernel)
                     with
                     Job.placement;
                   }
                 in
                 let r = Job.eval ~engine:Finepar_machine.Engine.default job in
                 Buffer.add_string buf (Report.to_csv r.Runner.telemetry))
               [ Job.Identity; Job.Mod2; Job.Div2 ])
           configs)
       Finepar_kernels.Registry.all;
     Buffer.contents buf)

(* Golden digest of the corpus.  Pins the CSV's rows, their order,
   labels and number formatting.  Update the digest only for an intended
   change of the CSV layout or of the simulated counts. *)
let golden_csv_digest = "ae3d0110b89b9f5eaf30e4d09feb4ee4"

let test_report_csv_golden () =
  Alcotest.(check string)
    "csv digest" golden_csv_digest
    (Digest.to_hex (Digest.string (Lazy.force csv_corpus)))

(* Every row, header included, has the header's 8 fields, however many
   labels it carries. *)
let test_report_csv_fields () =
  String.split_on_char '\n' (Lazy.force csv_corpus)
  |> List.iter (fun line ->
      if line <> "" then
        Alcotest.(check int) line 8
          (List.length (String.split_on_char ',' line)))

let test_chrome_trace_of_sim () =
  let _, sim = sim_of ~cores:4 "lammps-1" in
  let module CT = T.Chrome_trace in
  let events = Report.chrome_trace sim in
  let lanes = Hashtbl.create 8 in
  let cycles = ref 0 in
  List.iter
    (function
      | CT.Complete { pid = 0; tid; dur; _ } ->
        Hashtbl.replace lanes tid ();
        cycles := !cycles + dur
      | _ -> ())
    events;
  Alcotest.(check int) "one span lane per core" 4 (Hashtbl.length lanes);
  Alcotest.(check bool) "spans cover traced cycles" true (!cycles > 0);
  Alcotest.(check bool) "has queue counters" true
    (List.exists (function CT.Counter { pid = 1; _ } -> true | _ -> false) events);
  (* Host spans come from the tracer; the simulation's export is the
     guest lanes only. *)
  Alcotest.(check bool) "guest pids only" true
    (List.for_all
       (function
         | CT.Complete { pid; _ } | CT.Counter { pid; _ }
         | CT.Process_name { pid; _ } | CT.Thread_name { pid; _ }
         | CT.Thread_sort { pid; _ } | CT.Instant { pid; _ } ->
           pid = 0 || pid = 1)
       events)

(* ------------------------------------------------------------------ *)
(* Ring boundaries.                                                    *)

let test_ring_capacity_one () =
  let r = T.Ring.create ~capacity:1 in
  T.Ring.push r 1;
  Alcotest.(check (list int)) "holds one" [ 1 ] (T.Ring.to_list r);
  Alcotest.(check int) "nothing dropped yet" 0 (T.Ring.dropped r);
  T.Ring.push r 2;
  T.Ring.push r 3;
  Alcotest.(check (list int)) "keeps the newest" [ 3 ] (T.Ring.to_list r);
  Alcotest.(check int) "drops counted" 2 (T.Ring.dropped r);
  T.Ring.clear r;
  Alcotest.(check int) "clear resets dropped" 0 (T.Ring.dropped r);
  Alcotest.(check bool) "clear empties" true (T.Ring.is_empty r);
  T.Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (T.Ring.to_list r)

(* ------------------------------------------------------------------ *)
(* Histogram percentiles.                                              *)

let test_histogram_percentile () =
  let empty = T.Histogram.create ~bounds:[| 1; 2 |] in
  Alcotest.(check (option int)) "empty" None (T.Histogram.percentile empty 50.);
  List.iter
    (fun q ->
      Alcotest.check_raises
        (Printf.sprintf "q = %g rejected" q)
        (Invalid_argument "Histogram.percentile: q outside [0, 100]")
        (fun () -> ignore (T.Histogram.percentile empty q)))
    [ -0.5; 100.5 ];
  (* A single sample is exact at every percentile. *)
  let one = T.Histogram.create ~bounds:[| 1; 2; 4; 8 |] in
  T.Histogram.observe one 3;
  List.iter
    (fun q ->
      Alcotest.(check (option int))
        (Printf.sprintf "single sample at p%g" q)
        (Some 3) (T.Histogram.percentile one q))
    [ 0.; 50.; 99.; 100. ];
  (* A known distribution: bucket upper bounds, clamped to [min, max]. *)
  let h = T.Histogram.create ~bounds:[| 1; 2; 4; 8 |] in
  List.iter (T.Histogram.observe h) [ 1; 1; 2; 2; 3; 3; 4; 4; 5; 8 ];
  List.iter
    (fun (q, want) ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%g" q)
        (Some want) (T.Histogram.percentile h q))
    [ (0., 1); (50., 4); (90., 8); (100., 8) ];
  (* The overflow bucket reports the observed maximum, not infinity. *)
  let ov = T.Histogram.create ~bounds:[| 1; 2 |] in
  List.iter (T.Histogram.observe ov) [ 5; 100 ];
  List.iter
    (fun q ->
      Alcotest.(check (option int))
        (Printf.sprintf "overflow at p%g" q)
        (Some 100) (T.Histogram.percentile ov q))
    [ 50.; 99. ]

(* ------------------------------------------------------------------ *)
(* JSON round-trips through the strict parser.                         *)

let test_json_roundtrip () =
  (* Control characters must escape on the way out and decode on the
     way back in. *)
  let orig = "ctl:\000\001\n\t\r quote\"backslash\\ del\127 end" in
  let s = T.Json.to_string (T.Json.String orig) in
  String.iter
    (fun c ->
      Alcotest.(check bool) "no raw control bytes in output" true
        (Char.code c >= 0x20))
    s;
  (match T.Json.of_string s with
  | Ok (T.Json.String r) -> Alcotest.(check string) "round trip" orig r
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.fail e);
  (* Non-finite floats serialize to null, so the document stays valid
     RFC 8259 and reparses. *)
  let doc =
    T.Json.Obj
      [
        ("nan", T.Json.Float Float.nan);
        ("inf", T.Json.Float Float.infinity);
        ("ninf", T.Json.Float Float.neg_infinity);
        ("ok", T.Json.Float 1.5);
      ]
  in
  match T.Json.of_string (T.Json.to_string doc) with
  | Ok (T.Json.Obj kvs) ->
    List.iter
      (fun k ->
        Alcotest.(check bool)
          (Printf.sprintf "%s is null" k)
          true
          (List.assoc k kvs = T.Json.Null))
      [ "nan"; "inf"; "ninf" ];
    Alcotest.(check bool) "finite float survives" true
      (List.assoc "ok" kvs = T.Json.Float 1.5)
  | Ok _ -> Alcotest.fail "parsed to a non-object"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Host-side span tracer.                                              *)

(* Run [f] with a fresh tracer installed; always uninstalls. *)
let with_tracer f =
  let tr = T.Tracer.create () in
  T.Tracer.install tr;
  Fun.protect ~finally:T.Tracer.uninstall (fun () -> f tr)

let test_tracer_disabled () =
  Alcotest.(check bool) "no tracer installed" true
    (Option.is_none (T.Tracer.active ()));
  (* Every instrumentation entry point must be a transparent no-op. *)
  let v = T.Tracer.with_span "off" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passes through" 42 v;
  T.Tracer.set_arg "k" (T.Json.Int 1);
  T.Tracer.add_counter "c";
  Alcotest.(check bool) "still no tracer" true
    (Option.is_none (T.Tracer.active ()))

let test_tracer_nesting () =
  let tr =
    with_tracer (fun tr ->
        T.Tracer.with_span ~cat:"t" "outer" (fun () ->
            T.Tracer.with_span "inner" (fun () ->
                T.Tracer.set_arg "k" (T.Json.Int 7));
            T.Tracer.with_span "inner" (fun () -> ()));
        (* A raising body still records its span. *)
        (try T.Tracer.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        T.Tracer.add_counter ~by:2 "cases";
        T.Tracer.add_counter "cases";
        T.Tracer.add_counter "other";
        tr)
  in
  let spans = T.Tracer.spans tr in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  let outer = List.find (fun s -> s.T.Tracer.name = "outer") spans in
  Alcotest.(check int) "outer is a root" (-1) outer.T.Tracer.parent;
  Alcotest.(check string) "category recorded" "t" outer.T.Tracer.cat;
  let inners = List.filter (fun s -> s.T.Tracer.name = "inner") spans in
  Alcotest.(check int) "both inners" 2 (List.length inners);
  List.iter
    (fun (s : T.Tracer.span) ->
      Alcotest.(check int) "nested under outer" outer.T.Tracer.id
        s.T.Tracer.parent;
      Alcotest.(check bool) "closed" true (s.T.Tracer.t1 >= s.T.Tracer.t0))
    inners;
  let arged = List.find (fun s -> s.T.Tracer.args <> []) inners in
  Alcotest.(check bool) "set_arg hit the open span" true
    (List.assoc "k" arged.T.Tracer.args = T.Json.Int 7);
  let boom = List.find (fun s -> s.T.Tracer.name = "boom") spans in
  Alcotest.(check int) "raising span is a root" (-1) boom.T.Tracer.parent;
  Alcotest.(check (list (pair string int)))
    "counters accumulate, sorted"
    [ ("cases", 3); ("other", 1) ]
    (T.Tracer.counters tr);
  (* Every compiler pass is a span of category "pass" directly under
     its compile span, in pipeline order; these names are the
     benchmark's per-pass rows. *)
  let e = Option.get (Finepar_kernels.Registry.find "lammps-1") in
  let c, tr =
    with_tracer (fun tr ->
        ( Compiler.compile
            (Compiler.default_config ~cores:2 ())
            e.Finepar_kernels.Registry.kernel,
          tr ))
  in
  let spans = T.Tracer.spans tr in
  let compile =
    List.find (fun s -> s.T.Tracer.name = "compile lammps-1") spans
  in
  Alcotest.(check (list string)) "pass spans under the compile span"
    [
      "speculate"; "flatten"; "fiber-split"; "deps"; "code-graph"; "merge";
      "schedule"; "comm"; "lower"; "verify";
    ]
    (List.filter_map
       (fun (s : T.Tracer.span) ->
         if s.T.Tracer.cat = "pass" && s.T.Tracer.parent = compile.T.Tracer.id
         then Some s.T.Tracer.name
         else None)
       spans);
  let config = c.Compiler.config in
  Alcotest.(check bool) "lammps-1 compile verifies" true
    (Finepar_verify.Verify.ok
       (Finepar_verify.Verify.run ~plan:c.Compiler.comm
          ~mode:config.Compiler.comm_mode
          ~queue_len:config.Compiler.machine.Finepar_machine.Config.queue_len
          c.Compiler.code.Finepar_codegen.Lower.program));
  (* A run that names no engine simulates on [Engine.default], the
     compiled engine, and still times its specialize step as a pass span
     nested under the sim span. *)
  let tr =
    with_tracer (fun tr ->
        ignore (Runner.run ~workload:e.Finepar_kernels.Registry.workload c);
        tr)
  in
  let spans = T.Tracer.spans tr in
  let sim = List.find (fun s -> s.T.Tracer.name = "sim:compiled") spans in
  let specialize = List.find (fun s -> s.T.Tracer.name = "specialize") spans in
  Alcotest.(check string) "specialize is a pass span" "pass"
    specialize.T.Tracer.cat;
  Alcotest.(check int) "specialize nested under the sim span"
    sim.T.Tracer.id specialize.T.Tracer.parent

let test_tracer_multi_domain () =
  let tr =
    with_tracer (fun tr ->
        let ds =
          Array.init 3 (fun i ->
              Domain.spawn (fun () ->
                  T.Tracer.with_span "work"
                    (fun () -> Sys.opaque_identity (i * i))))
        in
        T.Tracer.with_span "main" (fun () -> ());
        Array.iter (fun d -> ignore (Domain.join d)) ds;
        tr)
  in
  let spans = T.Tracer.spans tr in
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.T.Tracer.domain) spans)
  in
  Alcotest.(check int) "spans from four domains" 4 (List.length domains);
  let events = T.Tracer.to_chrome tr in
  let thread_rows =
    List.filter_map
      (function
        | T.Chrome_trace.Thread_name { tid; name; _ } -> Some (tid, name)
        | _ -> None)
      events
  in
  (* The acceptance shape: one thread row per domain, distinct tids. *)
  Alcotest.(check int) "one thread row per domain" 4
    (List.length thread_rows);
  let tids = List.map fst thread_rows in
  Alcotest.(check int) "tids distinct" 4
    (List.length (List.sort_uniq compare tids));
  Alcotest.(check (list int)) "tids are dense ranks" [ 0; 1; 2; 3 ]
    (List.sort compare tids);
  Alcotest.(check bool) "host process named" true
    (List.exists
       (function
         | T.Chrome_trace.Process_name { pid; name } ->
           pid = T.Tracer.host_pid && name = "host"
         | _ -> false)
       events);
  List.iter
    (function
      | T.Chrome_trace.Complete { pid; tid; dur; _ } ->
        Alcotest.(check int) "span on the host pid" T.Tracer.host_pid pid;
        Alcotest.(check bool) "span tid has a thread row" true
          (List.mem tid tids);
        Alcotest.(check bool) "positive duration" true (dur >= 1)
      | _ -> ())
    events;
  (* tid assignment is stable: rank of the domain id among the sorted
     distinct domain ids in the trace. *)
  let expect_tid d =
    let rec rank i = function
      | [] -> i
      | d' :: rest -> if d' = d then i else rank (i + 1) rest
    in
    rank 0 domains
  in
  List.iter
    (fun (s : T.Tracer.span) ->
      let row =
        List.find
          (fun (_, name) -> name = Printf.sprintf "domain %d" s.T.Tracer.domain)
          thread_rows
      in
      Alcotest.(check int) "tid = rank of domain id"
        (expect_tid s.T.Tracer.domain) (fst row))
    spans

(* ------------------------------------------------------------------ *)
(* Profile tree.                                                       *)

let spin () = ignore (Sys.opaque_identity (Array.init 2048 (fun i -> i * i)))

let test_profile_tree () =
  let tr =
    with_tracer (fun tr ->
        T.Tracer.with_span "root" (fun () ->
            for _ = 1 to 3 do
              T.Tracer.with_span "child" spin
            done;
            T.Tracer.with_span "other" (fun () -> T.Tracer.with_span "leaf" spin));
        tr)
  in
  let tree = T.Profile_tree.of_spans (T.Tracer.spans tr) in
  Alcotest.(check bool) "well formed" true (T.Profile_tree.well_formed tree);
  (* The acceptance invariant, spelled out: at every node the children's
     total times — and their self times — sum to no more than the
     parent's total, and self time is never negative. *)
  let eps = 1e-9 in
  let rec check_node (n : T.Profile_tree.node) =
    let sum f =
      List.fold_left (fun a (c : T.Profile_tree.node) -> a +. f c) 0.
        n.T.Profile_tree.children
    in
    Alcotest.(check bool)
      (n.T.Profile_tree.name ^ ": children totals bounded by parent total")
      true
      (sum (fun c -> c.T.Profile_tree.total) <= n.T.Profile_tree.total +. eps);
    Alcotest.(check bool)
      (n.T.Profile_tree.name ^ ": children self bounded by parent total")
      true
      (sum (fun c -> c.T.Profile_tree.self) <= n.T.Profile_tree.total +. eps);
    Alcotest.(check bool)
      (n.T.Profile_tree.name ^ ": self nonnegative")
      true
      (n.T.Profile_tree.self >= 0.);
    List.iter check_node n.T.Profile_tree.children
  in
  List.iter check_node tree;
  (match tree with
  | [ root ] ->
    Alcotest.(check string) "single root" "root" root.T.Profile_tree.name;
    Alcotest.(check int) "root count" 1 root.T.Profile_tree.count;
    let child =
      List.find
        (fun (c : T.Profile_tree.node) -> c.T.Profile_tree.name = "child")
        root.T.Profile_tree.children
    in
    Alcotest.(check int) "same-name spans fold" 3 child.T.Profile_tree.count;
    Alcotest.(check bool) "total_seconds is the root total" true
      (Float.abs (T.Profile_tree.total_seconds tree -. root.T.Profile_tree.total)
      < eps)
  | _ -> Alcotest.fail "expected a single root");
  let hot = T.Profile_tree.hot_list tree in
  Alcotest.(check int) "hot list covers every path" 4 (List.length hot);
  let selves = List.map (fun (_, _, _, self) -> self) hot in
  Alcotest.(check bool) "hot list sorted by self, descending" true
    (List.sort (fun a b -> compare b a) selves = selves);
  Alcotest.(check bool) "paths are slash-joined" true
    (List.exists (fun (p, _, _, _) -> p = "root/other/leaf") hot)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basic;
          Alcotest.test_case "zero capacity" `Quick test_ring_zero_capacity;
          Alcotest.test_case "fold order" `Quick test_ring_fold_order;
          Alcotest.test_case "capacity one" `Quick test_ring_capacity_one;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "bounds generators" `Quick
            test_histogram_bounds_generators;
          Alcotest.test_case "percentile" `Quick test_histogram_percentile;
          QCheck_alcotest.to_alcotest test_histogram_observe_qcheck;
        ] );
      ("stall", [ Alcotest.test_case "classes" `Quick test_stall_classes ]);
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        ] );
      ( "chrome trace",
        [ Alcotest.test_case "event shapes" `Quick test_chrome_trace_shapes ] );
      ( "sim invariants",
        [
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
          Alcotest.test_case "queue stats" `Quick test_queue_invariants;
          Alcotest.test_case "stall histograms" `Quick test_stall_histograms;
          Alcotest.test_case "fiber attribution" `Quick test_fiber_attribution;
          Alcotest.test_case "bounded trace" `Quick test_trace_bounded;
        ] );
      ( "report",
        [
          Alcotest.test_case "invariants" `Quick test_report_invariants;
          Alcotest.test_case "chrome export" `Quick test_chrome_trace_of_sim;
          Alcotest.test_case "csv golden" `Quick test_report_csv_golden;
          Alcotest.test_case "csv rows match the header" `Quick
            test_report_csv_fields;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_tracer_disabled;
          Alcotest.test_case "nesting" `Quick test_tracer_nesting;
          Alcotest.test_case "multi-domain chrome export" `Quick
            test_tracer_multi_domain;
        ] );
      ( "profile tree",
        [ Alcotest.test_case "self/total invariant" `Quick test_profile_tree ] );
    ]

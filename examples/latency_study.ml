(* Latency and queue-capacity study (Fig. 11 / Fig. 13 mechanics).

   Two kernels with opposite communication structure:

   - a *feed-forward* kernel: values flow one way between the partitions,
     so the queues pipeline successive iterations and the transfer latency
     is almost entirely hidden;
   - a *round-trip* kernel: values flow core A -> core B -> core A within
     one iteration, so an in-order core cannot start the next iteration
     before the round trip completes, and the transfer latency lands on
     the critical path — the paper's "high sensitivity to communication
     latency".

   Run with: dune exec examples/latency_study.exe *)

open Finepar_ir
open Builder

let n = 256

let feed_forward =
  kernel ~name:"feed-forward" ~index:"i" ~lo:0 ~hi:n
    ~arrays:[ farr "a" n; farr "b" n; farr "out" n ]
    ~scalars:[ fscalar "acc" ]
    ~live_out:[ "acc" ]
    [
      set "x1" (sqrt_ (ld "a" (v "i") +: f 1.0));
      set "x2" (v "x1" *: ld "b" (v "i"));
      set "x3" (v "x2" /: (v "x1" +: f 2.0));
      set "acc" (v "acc" +: v "x3");
      store "out" (v "i") (v "x2");
    ]

let round_trip =
  kernel ~name:"round-trip" ~index:"i" ~lo:0 ~hi:n
    ~arrays:[ farr "a" n; farr "b" n; farr "out" n; farr "out2" n ]
    ~scalars:[]
    [
      set "x1" (ld "a" (v "i") *: ld "b" (v "i") +: f 0.5);
      set "y1" (sqrt_ (v "x1") +: ld "b" (v "i"));
      set "x2" (v "y1" *: v "x1");
      set "y2" (v "x2" /: (v "y1" +: f 1.0));
      set "x3" (v "y2" +: v "x2" *: f 0.25);
      store "out" (v "i") (v "x3");
      store "out2" (v "i") (v "y2");
    ]

(* The paper's protocol: a sequential profiling run, then the 4-core
   compile fed its counters. *)
let speedup =
  Finepar.Job.speedup
    (Finepar.Job.direct ~engine:Finepar_machine.Engine.default ())

let sweep k =
  let workload = Finepar_kernels.Workload.default k in
  Fmt.pr "%-14s" k.Kernel.name;
  List.iter
    (fun latency ->
      let machine =
        Finepar_machine.Config.(with_transfer_latency latency default)
      in
      let _, _, s = speedup (Finepar.Job.make ~machine ~workload ~cores:4 k) in
      Fmt.pr "  lat=%-3d %5.2f" latency s)
    [ 5; 20; 50; 100 ];
  Fmt.pr "@."

let capacity k =
  let workload = Finepar_kernels.Workload.default k in
  Fmt.pr "%-14s" k.Kernel.name;
  List.iter
    (fun queue_len ->
      let machine =
        {
          Finepar_machine.Config.default with
          Finepar_machine.Config.queue_len;
          transfer_latency = 50;
        }
      in
      let _, _, s = speedup (Finepar.Job.make ~machine ~workload ~cores:4 k) in
      Fmt.pr "  qlen=%-3d %5.2f" queue_len s)
    [ 1; 2; 4; 8; 20 ];
  Fmt.pr "@."

let () =
  Fmt.pr "speedup on 4 cores as queue transfer latency grows:@.";
  sweep feed_forward;
  sweep round_trip;
  Fmt.pr
    "@.the feed-forward pipeline hides latency behind queue buffering;@.\
     the round-trip kernel pays it on every iteration.@.@.";
  Fmt.pr "speedup at 50-cycle latency as queue capacity grows:@.";
  capacity feed_forward;
  capacity round_trip;
  Fmt.pr
    "@.capacity buys the feed-forward pipeline its tolerance; the@.\
     round-trip kernel cannot use extra slots.@."

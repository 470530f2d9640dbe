(* Pipelined execution of a loop body across 3 cores — the paper's Fig. 2,
   which shows a loop from lammps transformed so its body executes in a
   pipelined fashion across three cores with four SEND-RECV pairs.

   We compile the lammps-1 kernel for 3 cores, print which core owns each
   fiber and the communication schedule, then demonstrate the pipelining:
   the parallel version's cycle count is far below (per-core work x 3),
   because iterations overlap across the cores through the queues.

   Run with: dune exec examples/pipelined_loop.exe *)

open Finepar_ir
open Finepar_kernels

let () =
  let e = Option.get (Registry.find "lammps-1") in
  let kernel = e.Registry.kernel in
  let config = Finepar.Compiler.default_config ~cores:3 () in
  let c = Finepar.Compiler.compile config kernel in

  Fmt.pr "=== fiber placement over 3 cores ===========================@.";
  List.iter
    (fun (s : Region.sstmt) ->
      Fmt.pr "core %d | %a@." c.Finepar.Compiler.cluster_of.(s.Region.id)
        Region.pp_sstmt s)
    c.Finepar.Compiler.region.Region.stmts;

  Fmt.pr "@.=== communication (SEND -> RECV pairs per iteration) =======@.";
  let region = c.Finepar.Compiler.region in
  let deps = c.Finepar.Compiler.deps in
  let order = c.Finepar.Compiler.order in
  let comm =
    Finepar_transform.Comm.compute ~region ~deps
      ~cluster_of:c.Finepar.Compiler.cluster_of ~order ~queue_len:20
  in
  List.iter
    (fun (tr : Finepar_transform.Comm.transfer) ->
      Fmt.pr "  SEND(%s, core %d -> core %d)@." tr.Finepar_transform.Comm.var
        tr.Finepar_transform.Comm.src_core tr.Finepar_transform.Comm.dst_core)
    comm.Finepar_transform.Comm.transfers;

  Fmt.pr "@.=== pipelining effect =======================================@.";
  let workload = e.Registry.workload in
  let seq, par, s =
    Finepar.Job.speedup
      (Finepar.Job.direct ~engine:Finepar_machine.Engine.default ())
      (Finepar.Job.make ~workload ~cores:3 kernel)
  in
  Fmt.pr "sequential:        %7d cycles@." seq;
  Fmt.pr "3-core pipelined:  %7d cycles  (speedup %.2f)@." par s;
  Fmt.pr
    "cores overlap successive iterations through the hardware queues: a@.\
     producer core may run several iterations ahead (up to the queue@.\
     capacity of %d slots) before a slow consumer backs it up.@."
    Finepar_machine.Config.default.Finepar_machine.Config.queue_len

(** Drivers for every table and figure in the paper's evaluation
    (Section IV and V).  Each function returns plain data; the benchmark
    harness ([bench/main.ml]) and the CLI render it.

    Every kernel × configuration simulation is independent, so the
    drivers accept an optional {!Finepar_exec.Pool.t} and fan their rows
    out over it.  Results are merged by task index, making pooled runs
    byte-identical to sequential ones (the CI diffs them). *)

type kernel_run = {
  name : string;
  app : string;
  seq_cycles : int;
  par_cycles : int;
  speedup : float;
}
val mean : float list -> float
type table1_row = {
  t1_name : string;
  t1_location : string;
  t1_pct : float;
  t1_measured_ops : int;
  t1_trip : int;
}
val table1 : unit -> table1_row list
type fig12_row = {
  f12_name : string;
  f12_app : string;
  s2 : float;
  s4 : float;
}
val fig12 :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> fig12_row list
val fig12_averages : fig12_row list -> float * float
type table2_row = {
  t2_app : string;
  t2_s2 : float;
  t2_s4 : float;
  t2_paper_s2 : float;
  t2_paper_s4 : float;
}
val table2 :
  ?pool:Finepar_exec.Pool.t ->
  ?fig12_rows:fig12_row list -> unit -> table2_row list
type table3_row = {
  t3_name : string;
  fibers : int;
  deps : int;
  balance : float;
  com_ops : int;
  queues : int;
  t3_speedup : float;
  paper : Finepar_kernels.Registry.paper_row;
}
val table3 :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> table3_row list
type fig13_point = {
  latency : int;
  per_kernel : (string * float) list;
  f13_avg : float;
  no_speedup : int;
}
val fig13 :
  ?pool:Finepar_exec.Pool.t ->
  ?latencies:int list -> ?queue_len:int -> unit -> fig13_point list
type fig14_row = {
  f14_name : string;
  base : float;
  speculated : float;
  chosen : float;
  converted_ifs : int;
}
val fig14 :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> fig14_row list
type ablation_row = {
  ab_name : string;
  ab_base : float;
  ab_variant : float;
}
val throughput_ablation :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> ablation_row list
val multipair_ablation :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> ablation_row list

(** Hardware queues vs shared-cache valid-flag coupling: 4-core speedup
    with the paper's queues ([ab_base]) against the same partitioning
    communicating through spin-wait handshakes in the ordinary cache
    hierarchy ([ab_variant]). *)
val comm_mode_ablation :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> ablation_row list

(** 4-core speedup over a sequential baseline on a single-issue machine
    ([ab_base]) vs the same comparison with every core dual-issue
    ([ab_variant] — a wider baseline core competes with thread-level
    parallelism). *)
val issue_width_ablation :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> ablation_row list
val overhead_study :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t ->
  ?trips:int list -> unit -> (int * float * float) list
val queue_capacity_ablation :
  ?pool:Finepar_exec.Pool.t ->
  ?queue_lens:int list ->
  ?latencies:int list -> unit -> (int * int * float) list
val characterization : unit -> Finepar_characterize.Classify.funnel
val fig11_demo : ?transfer_latency:int -> unit -> int * (int * int) list
type smt_row = {
  smt_name : string;
  smt_1core : float;
  smt_2cores : float;
  smt_4cores : float;
}
val smt_study :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t -> unit -> smt_row list
val queue_limit_study :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t ->
  ?limits:int list -> unit -> (int * float) list
val cores_sweep :
  ?pool:Finepar_exec.Pool.t ->
  ?machine:Finepar_machine.Config.t ->
  ?cores:int list -> unit -> (string * (int * float) list) list
val simd_estimates : unit -> (string * Finepar_characterize.Simd.report) list

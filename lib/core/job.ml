(** Job evaluation.  See the .mli for the chain and the evaluator
    contract. *)

open Finepar_machine

type placement = Identity | Single_core | Mod2 | Div2

let materialize placement n =
  match placement with
  | Identity -> Array.init n Fun.id
  | Single_core -> Array.make n 0
  | Mod2 -> Array.init n (fun i -> i mod 2)
  | Div2 -> Array.init n (fun i -> i / 2)

type workload = Seeded of int | Explicit of Finepar_ir.Eval.workload

type t = {
  kernel : Finepar_ir.Kernel.t;
  config : Compiler.config;
  sequential : bool;
  placement : placement;
  workload : workload;
  profile_counters : (string * int * int) list;
}

let make ?(config = Compiler.default_config ()) ?(workload = []) ~cores kernel
    =
  {
    kernel;
    config = { config with Compiler.cores };
    sequential = false;
    placement = Identity;
    workload = Explicit workload;
    profile_counters = [];
  }

(* ------------------------------------------------------------------ *)
(* The chain.                                                           *)

let compile job =
  let profile = Finepar_analysis.Profile.of_counters job.profile_counters in
  let config = { job.config with Compiler.profile } in
  if job.sequential then
    Compiler.compile_sequential ~machine:config.Compiler.machine job.kernel
  else Compiler.compile config job.kernel

let run ~engine job (compiled : Compiler.compiled) =
  let program = compiled.Compiler.code.Finepar_codegen.Lower.program in
  let core_map = materialize job.placement (Array.length program.Program.cores) in
  let workload =
    match job.workload with
    | Seeded seed -> Finepar_kernels.Workload.default ~seed job.kernel
    | Explicit w -> w
  in
  Runner.run ~check:true ~workload ~core_map ~engine compiled

let eval ~engine job = run ~engine job (compile job)

(* ------------------------------------------------------------------ *)
(* Evaluators.                                                          *)

type measure = (int * (string * int * int) list, string) result
type evaluator = t list -> measure list

let measure ~engine job : measure =
  match eval ~engine job with
  | r -> Ok (r.Runner.cycles, r.Runner.load_counters)
  | exception e -> Error (Printexc.to_string e)

let direct ?pool ~engine () : evaluator =
 fun jobs -> Finepar_exec.Pool.map_opt pool ~f:(measure ~engine) jobs

(* ------------------------------------------------------------------ *)
(* Protocols.                                                           *)

exception Failed of string

let get = function Ok m -> m | Error msg -> raise (Failed msg)

(* The sequential profiling run of [job]: its cycles and load counters. *)
let profile (evaluator : evaluator) job =
  get
    (List.hd
       (evaluator [ { job with sequential = true; profile_counters = [] } ]))

let fed evaluator job =
  let seq_cycles, profile_counters = profile evaluator job in
  (seq_cycles, { job with profile_counters })

let speedup evaluator job =
  let seq_cycles, job = fed evaluator job in
  let par_cycles, _ = get (List.hd (evaluator [ job ])) in
  (seq_cycles, par_cycles, float_of_int seq_cycles /. float_of_int par_cycles)

let measured_speedup ~engine evaluator job =
  let seq_cycles, job = fed evaluator job in
  match
    let c = compile job in
    (c, (run ~engine job c).Runner.cycles)
  with
  | c, par_cycles -> (seq_cycles, c, par_cycles)
  | exception e -> raise (Failed (Printexc.to_string e))

let autotune_candidates (base : Compiler.config) =
  [
    ("sequential", { base with Compiler.cores = 1 });
    ("baseline", base);
    ("speculation", { base with Compiler.speculation = true });
    ("throughput", { base with Compiler.throughput = true });
    ("speculation+throughput",
     { base with Compiler.speculation = true; throughput = true });
    ("multi-pair", { base with Compiler.algorithm = `Multi_pair });
  ]

(* The preference key behind {!compare_candidates}: cheaper configurations
   first, so a cycle tie resolves to the simplest machine.  Every knob that
   distinguishes candidates appears here; any configs equal under this key
   are observationally identical to the search. *)
let config_preference (c : Compiler.config) =
  let alg = match c.Compiler.algorithm with `Greedy -> 0 | `Multi_pair -> 1 in
  let comm =
    match c.Compiler.comm_mode with
    | Finepar_transform.Comm.Queues -> 0
    | Finepar_transform.Comm.Shared_cache -> 1
  in
  let w = c.Compiler.weights in
  ( c.Compiler.cores,
    (Bool.to_int c.Compiler.speculation, Bool.to_int c.Compiler.throughput, alg),
    ( c.Compiler.machine.Config.transfer_latency,
      c.Compiler.machine.Config.queue_len,
      c.Compiler.machine.Config.issue_width,
      comm ),
    ( (w.Finepar_partition.Affinity.w_dep,
       w.Finepar_partition.Affinity.w_time,
       w.Finepar_partition.Affinity.w_prox),
      c.Compiler.max_height,
      c.Compiler.max_queue_pairs ) )

let compare_candidates (cy_a, (a : Compiler.config)) (cy_b, (b : Compiler.config)) =
  match compare (cy_a : int) cy_b with
  | 0 -> compare (config_preference a) (config_preference b)
  | n -> n

let autotune evaluator job =
  let _, job = fed evaluator job in
  let candidates = autotune_candidates job.config in
  let measured =
    List.map2
      (fun (name, config) m -> (name, config, fst (get m)))
      candidates
      (evaluator (List.map (fun (_, config) -> { job with config }) candidates))
  in
  let best_name, _, best_cycles =
    List.fold_left
      (fun (bn, bc, bcy) (n, c, cy) ->
        (* Strict [< 0]: ties keep the earlier candidate, so the winner is
           independent of how a parallel search happened to interleave. *)
        if compare_candidates (cy, c) (bcy, bc) < 0 then (n, c, cy)
        else (bn, bc, bcy))
      (List.hd measured) (List.tl measured)
  in
  (best_name, best_cycles, List.map (fun (n, _, cy) -> (n, cy)) measured)

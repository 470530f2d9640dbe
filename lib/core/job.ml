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

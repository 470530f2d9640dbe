(** Random well-typed (kernel, configuration) cases.

    The generator deliberately covers the scenario space the fixed test
    kernels do not: int and float arithmetic, nested and chained
    conditionals, loop-carried recurrences, indirect ([a[b[i]]]-style)
    addressing, variable trip counts and array lengths, multiple stores
    and live-outs — crossed with the whole configuration space (core
    count, SMT placements, speculation, merge heuristics, queue and cache
    geometry, issue width, and the queue vs shared-cache transfer
    realization).

    Generated kernels are sound by construction with respect to the
    compiler's structural restrictions (see {!Finepar_analysis.Deps}):

    - array indices are always in bounds for {!Finepar_kernels.Workload}
      data: index forms are the induction variable, a load from an index
      array (whose values the workload bounds by the shortest array), or
      a small constant, and every array is at least [max 4 hi] long;
    - a scalar defined under a conditional is either branch-local (its
      uses are guarded by the same predicate prefix), assigned in both
      branches (a merge variable), or a declared live-in scalar;
    - conditional predicates are always comparison expressions, never a
      bare variable, so the hoisted predicate temporary is single-def. *)

open Finepar_ir
open Builder

(** How the compiled program's hardware threads map onto physical cores
    ({!Finepar_machine.Sim.create}'s [core_map]); non-identity placements
    exercise the SMT issue-slot sharing path. *)
type placement = Finepar.Job.placement = Identity | Single_core | Mod2 | Div2

let placement_name = function
  | Identity -> "identity"
  | Single_core -> "single-core"
  | Mod2 -> "mod2"
  | Div2 -> "div2"

let placement_of_name = function
  | "identity" -> Some Identity
  | "single-core" -> Some Single_core
  | "mod2" -> Some Mod2
  | "div2" -> Some Div2
  | _ -> None

let materialize = Finepar.Job.materialize

(** One differential-fuzzing case: what to compile, how to compile it,
    where to place the threads, and which workload data to run on. *)
type case = {
  kernel : Kernel.t;
  config : Finepar.Compiler.config;
  placement : placement;
  workload_seed : int;
}

(* ------------------------------------------------------------------ *)
(* Expressions.                                                        *)

type pool = { fvars : string list; ivars : string list }

type env = {
  rng : Rng.t;
  index : string;
  farrs : string list;  (** float arrays readable as values *)
  iarrs : string list;  (** int arrays holding in-bounds indices *)
  fouts : string list;  (** float store targets *)
  iouts : string list;  (** int store targets *)
  faccs : string list;  (** declared float accumulators *)
  iaccs : string list;  (** declared int accumulators *)
  mutable fresh : int;
}

let fresh env prefix =
  env.fresh <- env.fresh + 1;
  Printf.sprintf "%s%d" prefix env.fresh

(** An always-in-bounds index expression (see the module header). *)
let gen_idx env =
  let r = env.rng in
  let forms =
    [ (6, `Induction); (1, `Small_const) ]
    @ (if env.iarrs = [] then [] else [ (4, `Indirect) ])
  in
  match Rng.weighted r forms with
  | `Induction -> v env.index
  | `Small_const -> i (Rng.int_below r 4)
  | `Indirect -> ld (Rng.choose r env.iarrs) (v env.index)

let rec gen_fexpr env pool depth =
  let r = env.rng in
  if depth <= 0 then gen_fleaf env pool
  else
    match
      Rng.weighted r
        [ (2, `Leaf); (5, `Arith); (2, `Div); (2, `Unary); (1, `Select);
          (1, `Of_int) ]
    with
    | `Leaf -> gen_fleaf env pool
    | `Arith ->
      let op = Rng.choose r [ ( +: ); ( -: ); ( *: ); min_; max_ ] in
      op (gen_fexpr env pool (depth - 1)) (gen_fexpr env pool (depth - 1))
    | `Div ->
      let a = gen_fexpr env pool (depth - 1)
      and b = gen_fexpr env pool (depth - 1) in
      (* Sometimes guard the divisor; an unguarded inf/nan is still
         bit-deterministic and worth fuzzing. *)
      if Rng.chance r 0.7 then a /: (abs_ b +: f 1.0) else a /: b
    | `Unary ->
      let e = gen_fexpr env pool (depth - 1) in
      (match Rng.int_below r 5 with
      | 0 -> neg e
      | 1 -> abs_ e
      | 2 -> sqrt_ (abs_ e)
      | 3 -> log_ (abs_ e +: f 0.5)
      | _ -> exp_ (min_ e (f 4.0)))
    | `Select ->
      select
        (gen_icmp env pool (depth - 1))
        (gen_fexpr env pool (depth - 1))
        (gen_fexpr env pool (depth - 1))
    | `Of_int -> to_f (gen_iexpr env pool (depth - 1))

and gen_fleaf env pool =
  let r = env.rng in
  let forms =
    [ (2, `Const) ]
    @ (if pool.fvars = [] then [] else [ (4, `Var) ])
    @ if env.farrs = [] then [] else [ (4, `Load) ]
  in
  match Rng.weighted r forms with
  | `Const -> f (Rng.float_in r (-2.0) 3.0)
  | `Var -> v (Rng.choose r pool.fvars)
  | `Load -> ld (Rng.choose r env.farrs) (gen_idx env)

and gen_iexpr env pool depth =
  let r = env.rng in
  if depth <= 0 then gen_ileaf env pool
  else
    match
      Rng.weighted r
        [ (4, `Leaf); (5, `Arith); (3, `Bits); (2, `Cmp); (1, `Of_float) ]
    with
    | `Leaf -> gen_ileaf env pool
    | `Arith ->
      let op =
        Rng.choose r
          [ ( +: ); ( -: ); ( *: ); ( /: ); ( %: ); min_; max_ ]
      in
      op (gen_iexpr env pool (depth - 1)) (gen_iexpr env pool (depth - 1))
    | `Bits ->
      let a = gen_iexpr env pool (depth - 1) in
      (match Rng.int_below r 5 with
      | 0 -> Expr.Binop (Types.And, a, gen_iexpr env pool (depth - 1))
      | 1 -> Expr.Binop (Types.Or, a, gen_iexpr env pool (depth - 1))
      | 2 -> Expr.Binop (Types.Xor, a, gen_iexpr env pool (depth - 1))
      | 3 -> Expr.Binop (Types.Shl, a, i (Rng.int_below r 5))
      | _ -> Expr.Binop (Types.Shr, a, i (Rng.int_below r 5)))
    | `Cmp -> gen_icmp env pool depth
    | `Of_float -> to_i (gen_fexpr env pool (depth - 1))

and gen_ileaf env pool =
  let r = env.rng in
  let forms =
    [ (2, `Const); (2, `Induction) ]
    @ (if pool.ivars = [] then [] else [ (3, `Var) ])
    @ if env.iarrs = [] then [] else [ (2, `Load) ]
  in
  match Rng.weighted r forms with
  | `Const -> i (Rng.int_in r (-4) 9)
  | `Induction -> v env.index
  | `Var -> v (Rng.choose r pool.ivars)
  | `Load -> ld (Rng.choose r env.iarrs) (gen_idx env)

(** A comparison (I64-valued; used for predicates and selects).  Always a
    [Binop], never a bare variable, so predicate hoisting introduces a
    fresh single-def temporary. *)
and gen_icmp env pool depth =
  let r = env.rng in
  let cmp = Rng.choose r [ ( <: ); ( <=: ); ( >: ); ( >=: ); ( ==: ); ( <>: ) ] in
  let depth = max 1 depth in
  if Rng.bool r then
    cmp (gen_fexpr env pool (depth - 1)) (gen_fexpr env pool (depth - 1))
  else cmp (gen_iexpr env pool (depth - 1)) (gen_iexpr env pool (depth - 1))

(* ------------------------------------------------------------------ *)
(* Statements.                                                         *)

let gen_store env pool =
  let r = env.rng in
  let int_target = env.iouts <> [] && Rng.chance r 0.3 in
  if int_target then
    store (Rng.choose r env.iouts) (gen_idx env) (gen_iexpr env pool 2)
  else store (Rng.choose r env.fouts) (gen_idx env) (gen_fexpr env pool 2)

(** One loop-carried update of a specific accumulator: reductions
    ([acc op= e]) and first-order recurrences ([acc = acc * c + e]). *)
let gen_int_update env pool acc =
  let r = env.rng in
  let e = gen_iexpr env pool 2 in
  let rhs =
    match Rng.int_below r 4 with
    | 0 -> v acc +: e
    | 1 -> Expr.Binop (Types.Xor, v acc, e)
    | 2 -> min_ (v acc) e
    | _ -> max_ (v acc) e
  in
  set acc rhs

let gen_float_update env pool acc =
  let r = env.rng in
  let e = gen_fexpr env pool 2 in
  let rhs =
    match Rng.int_below r 5 with
    | 0 | 1 -> v acc +: e
    | 2 -> (v acc *: f (Rng.float_in r 0.5 1.1)) +: e  (* recurrence *)
    | 3 -> min_ (v acc) e
    | _ -> max_ (v acc) e
  in
  set acc rhs

(** A loop-carried accumulator update at top level. *)
let gen_accumulate env pool =
  let r = env.rng in
  let int_acc = env.iaccs <> [] && (env.faccs = [] || Rng.chance r 0.35) in
  if int_acc then Some (gen_int_update env pool (Rng.choose r env.iaccs))
  else
    match env.faccs with
    | [] -> None
    | faccs -> Some (gen_float_update env pool (Rng.choose r faccs))

(** Statements for one conditional branch.  Branch-local temporaries are
    appended to a branch-scoped pool and never escape.  Accumulator
    updates never appear here: a single predicated definition of a
    scalar used outside the branch is rejected by the dependence
    analysis, so predicated accumulation is generated pairwise by
    {!gen_conditional} instead. *)
let rec gen_branch env pool ~depth ~n =
  let r = env.rng in
  let rec go pool acc n =
    if n = 0 then List.rev acc
    else
      let choicelist =
        [ (3, `Local_def); (4, `Store) ]
        @ if depth < 2 then [ (1, `Nested) ] else []
      in
      match Rng.weighted r choicelist with
      | `Local_def ->
        let name = fresh env "t" in
        if Rng.bool r then
          go
            { pool with fvars = name :: pool.fvars }
            (set name (gen_fexpr env pool 2) :: acc)
            (n - 1)
        else
          go
            { pool with ivars = name :: pool.ivars }
            (set name (gen_iexpr env pool 2) :: acc)
            (n - 1)
      | `Store -> go pool (gen_store env pool :: acc) (n - 1)
      | `Nested ->
        let s, _ = gen_conditional env pool ~depth:(depth + 1) in
        go pool (s :: acc) (n - 1)
  in
  go pool [] n

(** A conditional.  With probability ~1/2 it defines a merge variable
    (assigned in both branches) that joins the enclosing pool; it may
    also update an accumulator under the predicate — assigned in both
    branches (the else arm re-updates or reasserts the accumulator), so
    the scalar is multiply-defined and the dependence analysis
    co-locates its statements rather than rejecting the kernel. *)
and gen_conditional env pool ~depth =
  let r = env.rng in
  let cond = gen_icmp env pool 2 in
  let then_stmts = gen_branch env pool ~depth ~n:(Rng.int_in r 1 3) in
  let else_n = Rng.int_below r 3 in
  let else_stmts = gen_branch env pool ~depth ~n:else_n in
  let then_stmts, else_stmts =
    if Rng.chance r 0.4 && (env.faccs <> [] || env.iaccs <> []) then begin
      let int_acc = env.iaccs <> [] && (env.faccs = [] || Rng.chance r 0.35) in
      let acc, update =
        if int_acc then
          let a = Rng.choose r env.iaccs in
          (a, fun () -> gen_int_update env pool a)
        else
          let a = Rng.choose r env.faccs in
          (a, fun () -> gen_float_update env pool a)
      in
      let else_update =
        if Rng.chance r 0.4 then update () else set acc (v acc)
      in
      (then_stmts @ [ update () ], else_stmts @ [ else_update ])
    end
    else (then_stmts, else_stmts)
  in
  if Rng.chance r 0.5 then begin
    let m = fresh env "m" in
    let float_merge = Rng.bool r in
    let arm () =
      if float_merge then gen_fexpr env pool 2 else gen_iexpr env pool 2
    in
    let then_stmts = then_stmts @ [ set m (arm ()) ] in
    let else_stmts = else_stmts @ [ set m (arm ()) ] in
    let pool =
      if float_merge then { pool with fvars = m :: pool.fvars }
      else { pool with ivars = m :: pool.ivars }
    in
    (if_ cond then_stmts else_stmts, pool)
  end
  else (if_ cond then_stmts else_stmts, pool)

(* ------------------------------------------------------------------ *)
(* Kernels.                                                            *)

let gen_kernel rng =
  let r = rng in
  (* Iteration space: mostly mid-sized, with zero-trip / single-trip /
     nonzero-lower-bound corners. *)
  let lo = if Rng.chance r 0.25 then Rng.int_below r 9 else 0 in
  let trips =
    match Rng.int_below r 12 with
    | 0 -> Rng.int_below r 2
    | 1 | 2 -> 1 + Rng.int_below r 3
    | _ -> 4 + Rng.int_below r 25
  in
  let hi = lo + trips in
  let min_len = max 4 hi in
  let len () = min_len + Rng.int_below r 17 in
  (* Declarations. *)
  let input_farrs =
    farr "a" (len ()) :: (if Rng.chance r 0.6 then [ farr "b" (len ()) ] else [])
  in
  let idx_arrs = if Rng.chance r 0.5 then [ iarr "idx" (len ()) ] else [] in
  let out_farrs =
    farr "out" (len ())
    :: (if Rng.chance r 0.4 then [ farr "out2" (len ()) ] else [])
  in
  let out_iarrs = if Rng.chance r 0.3 then [ iarr "iout" (len ()) ] else [] in
  let arrays = input_farrs @ idx_arrs @ out_farrs @ out_iarrs in
  let finv =
    [ fscalar ~init:(Rng.float_in r (-1.0) 2.0) "p" ]
    @ if Rng.chance r 0.6 then [ fscalar ~init:(Rng.float_in r 0.0 3.0) "q" ] else []
  in
  let iinv = [ iscalar ~init:(Rng.int_in r (-3) 8) "k" ] in
  let faccs =
    (if Rng.chance r 0.8 then [ fscalar ~init:(Rng.float_in r (-1.0) 1.0) "facc" ]
     else [])
    @ if Rng.chance r 0.3 then [ fscalar ~init:1.0 "gacc" ] else []
  in
  let iaccs = if Rng.chance r 0.5 then [ iscalar ~init:(Rng.int_in r 0 4) "iacc" ] else [] in
  let scalars = finv @ iinv @ faccs @ iaccs in
  let env =
    {
      rng = r;
      index = "i";
      farrs =
        List.map (fun (d : Kernel.array_decl) -> d.Kernel.a_name)
          (input_farrs @ if Rng.chance r 0.5 then out_farrs else []);
      iarrs = List.map (fun (d : Kernel.array_decl) -> d.Kernel.a_name) idx_arrs;
      fouts = List.map (fun (d : Kernel.array_decl) -> d.Kernel.a_name) out_farrs;
      iouts = List.map (fun (d : Kernel.array_decl) -> d.Kernel.a_name) out_iarrs;
      faccs = List.map (fun (d : Kernel.scalar_decl) -> d.Kernel.s_name) faccs;
      iaccs = List.map (fun (d : Kernel.scalar_decl) -> d.Kernel.s_name) iaccs;
      fresh = 0;
    }
  in
  let pool0 =
    {
      fvars = List.map (fun (d : Kernel.scalar_decl) -> d.Kernel.s_name) (finv @ faccs);
      ivars = List.map (fun (d : Kernel.scalar_decl) -> d.Kernel.s_name) (iinv @ iaccs);
    }
  in
  (* Body: a chain of defs, reductions, stores and conditionals over a
     growing variable pool. *)
  let n_groups = Rng.int_in r 3 8 in
  let rec build pool acc n =
    if n = 0 then (List.rev acc, pool)
    else
      match
        Rng.weighted r
          [ (5, `Def); (2, `Accumulate); (3, `Store); (2, `Conditional) ]
      with
      | `Def ->
        let name = fresh env "x" in
        if Rng.chance r 0.65 then
          build
            { pool with fvars = name :: pool.fvars }
            (set name (gen_fexpr env pool (1 + Rng.int_below r 3)) :: acc)
            (n - 1)
        else
          build
            { pool with ivars = name :: pool.ivars }
            (set name (gen_iexpr env pool (1 + Rng.int_below r 3)) :: acc)
            (n - 1)
      | `Accumulate -> (
        match gen_accumulate env pool with
        | Some s -> build pool (s :: acc) (n - 1)
        | None -> build pool (acc) n)
      | `Store -> build pool (gen_store env pool :: acc) (n - 1)
      | `Conditional ->
        let s, pool = gen_conditional env pool ~depth:0 in
        build pool (s :: acc) (n - 1)
  in
  let body, pool = build pool0 [] n_groups in
  (* Always end observable: one unconditional store. *)
  let body = body @ [ store (List.hd env.fouts) (v "i") (gen_fexpr env pool 2) ] in
  let live_out =
    List.filter_map
      (fun (d : Kernel.scalar_decl) ->
        let p =
          if List.mem d.Kernel.s_name (env.faccs @ env.iaccs) then 0.7 else 0.2
        in
        if Rng.chance r p then Some d.Kernel.s_name else None)
      scalars
  in
  kernel ~name:"fuzz" ~index:"i" ~lo ~hi ~arrays ~scalars ~live_out body

(* ------------------------------------------------------------------ *)
(* Configurations.                                                     *)

let gen_config rng =
  let r = rng in
  let cores = Rng.weighted r [ (1, 1); (3, 2); (1, 3); (4, 4) ] in
  let machine =
    {
      Finepar_machine.Config.default with
      Finepar_machine.Config.queue_len =
        Rng.weighted r [ (2, 2); (1, 3); (2, 4); (1, 8); (3, 20) ];
      transfer_latency = Rng.weighted r [ (1, 1); (4, 5); (2, 20); (1, 50) ];
      l1_bytes = Rng.choose r [ 512; 2048; 16 * 1024 ];
      l2_bytes = Rng.choose r [ 4096; 64 * 1024; 4 * 1024 * 1024 ];
      l1_hit = Rng.choose r [ 2; 6 ];
      l2_hit = Rng.choose r [ 12; 40 ];
      mem_latency = Rng.choose r [ 80; 200 ];
      branch_taken_penalty = Rng.choose r [ 0; 1; 3 ];
      deq_latency = Rng.choose r [ 1; 2 ];
      issue_width = Rng.weighted r [ (3, 1); (2, 2) ];
    }
  in
  {
    (Finepar.Compiler.default_config ~cores ()) with
    Finepar.Compiler.max_height = Rng.weighted r [ (2, 1); (4, 2); (2, 3); (1, 5) ];
    algorithm = (if Rng.chance r 0.3 then `Multi_pair else `Greedy);
    throughput = Rng.chance r 0.25;
    max_queue_pairs =
      (if Rng.chance r 0.2 then Some (Rng.int_in r 1 4) else None);
    speculation = Rng.chance r 0.35;
    comm_mode =
      (if Rng.chance r 0.35 then Finepar_transform.Comm.Shared_cache
       else Finepar_transform.Comm.Queues);
    machine;
  }

let gen_placement rng cores =
  if cores <= 1 then Identity
  else
    Rng.weighted rng
      [ (5, Identity); (1, Single_core); (1, Mod2); (1, Div2) ]

let gen_case rng =
  let kernel = gen_kernel rng in
  let config = gen_config rng in
  let placement = gen_placement rng config.Finepar.Compiler.cores in
  let workload_seed = Rng.int_below rng 1000 in
  { kernel; config; placement; workload_seed }

(** The case generated by a given integer seed — the unit of
    reproducibility ([finepar fuzz --seed]). *)
let case_of_seed seed = gen_case (Rng.create seed)

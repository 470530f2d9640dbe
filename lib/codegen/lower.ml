(** Lowering of partitioned, scheduled regions to machine code.

    One function per core is produced, mirroring the paper's outlining
    (Section III-C): core 0 carries the primary thread (the "original
    function"), cores 1..k-1 carry outlined functions run by the runtime
    driver of Section III-G.  Conditional structure is replicated on every
    core that holds predicated statements (Section III-E): branch and
    label instructions are regenerated from the flat predicate contexts.

    Item placement per core follows the global schedule; dequeues are
    ordered by their matching enqueue's global position and hoisted with a
    suffix-min so that (a) per-queue FIFO order matches the producer, and
    (b) a transferred predicate value is always dequeued before anything
    guarded by it. *)

open Finepar_ir
open Finepar_analysis
open Finepar_transform
module SS = Set.Make (String)
open Finepar_machine

exception Codegen_error of string

let codegen_error fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

let qclass_of_ty = function
  | Types.I64 -> Isa.Qint
  | Types.F64 -> Isa.Qfloat

(* ------------------------------------------------------------------ *)
(* Queue registry (global across cores).                               *)

module Queues = struct
  type t = {
    tbl : (int * int * Isa.qclass, int) Hashtbl.t;
    mutable specs : Isa.queue_spec list;  (** reversed *)
    mutable count : int;
  }

  let create () = { tbl = Hashtbl.create 16; specs = []; count = 0 }

  let id t ~src ~dst ~cls =
    match Hashtbl.find_opt t.tbl (src, dst, cls) with
    | Some q -> q
    | None ->
      let q = t.count in
      t.count <- q + 1;
      Hashtbl.replace t.tbl (src, dst, cls) q;
      t.specs <- { Isa.src; dst; cls } :: t.specs;
      q

  let to_array t = Array.of_list (List.rev t.specs)
end

(* ------------------------------------------------------------------ *)
(* Per-core emission context.                                          *)

type const_key = Kint of int | Kfloat of int64

let const_key = function
  | Types.VInt i -> Kint i
  | Types.VFloat f -> Kfloat (Int64.bits_of_float f)

type core_ctx = {
  core : int;
  b : Program.Builder.b;
  var_reg : (string, Isa.reg) Hashtbl.t;
  const_reg : (const_key, Isa.reg) Hashtbl.t;
}

let new_ctx core =
  {
    core;
    b = Program.Builder.create ();
    var_reg = Hashtbl.create 32;
    const_reg = Hashtbl.create 16;
  }

(** Register holding [v]; allocates on first definition. *)
let reg_def ctx v =
  match Hashtbl.find_opt ctx.var_reg v with
  | Some r -> r
  | None ->
    let r = Program.Builder.fresh_reg ctx.b in
    Hashtbl.replace ctx.var_reg v r;
    r

(** Register holding [v]; the variable must already be defined on this
    core (otherwise the partitioning or scheduling is broken). *)
let reg_use ctx v =
  match Hashtbl.find_opt ctx.var_reg v with
  | Some r -> r
  | None -> codegen_error "core %d: variable %s has no register" ctx.core v

let creg ctx v =
  match Hashtbl.find_opt ctx.const_reg (const_key v) with
  | Some r -> r
  | None -> codegen_error "core %d: constant %a not in pool" ctx.core
              Types.pp_value v

(** Emit the constant pool: one [Li] per distinct literal. *)
let emit_const_pool ctx values =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun v ->
      let k = const_key v in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        let r = Program.Builder.fresh_reg ctx.b in
        Hashtbl.replace ctx.const_reg k r;
        Program.Builder.emit ctx.b (Isa.Li (r, v))
      end)
    values

(* ------------------------------------------------------------------ *)
(* Expression lowering.                                                *)

let rec lower_expr ctx ~array_id e =
  match e with
  | Expr.Const v -> creg ctx v
  | Expr.Var v -> reg_use ctx v
  | Expr.Load (a, idx) ->
    let ri = lower_expr ctx ~array_id idx in
    let d = Program.Builder.fresh_reg ctx.b in
    Program.Builder.emit ctx.b (Isa.Load (d, array_id a, ri));
    d
  | Expr.Unop (op, x) ->
    let rx = lower_expr ctx ~array_id x in
    let d = Program.Builder.fresh_reg ctx.b in
    Program.Builder.emit ctx.b (Isa.Un (op, d, rx));
    d
  | Expr.Binop (op, x, y) ->
    let rx = lower_expr ctx ~array_id x in
    let ry = lower_expr ctx ~array_id y in
    let d = Program.Builder.fresh_reg ctx.b in
    Program.Builder.emit ctx.b (Isa.Bin (op, d, rx, ry));
    d
  | Expr.Select (c, t, f) ->
    let rc = lower_expr ctx ~array_id c in
    let rt = lower_expr ctx ~array_id t in
    let rf = lower_expr ctx ~array_id f in
    let d = Program.Builder.fresh_reg ctx.b in
    Program.Builder.emit ctx.b (Isa.Sel (d, rc, rt, rf));
    d

(** Lower [e] into the (stable) register of variable [v]. *)
let lower_into ctx ~array_id v e =
  match e with
  | Expr.Const c ->
    let d = reg_def ctx v in
    Program.Builder.emit ctx.b (Isa.Mov (d, creg ctx c))
  | Expr.Var src ->
    let rs = reg_use ctx src in
    let d = reg_def ctx v in
    Program.Builder.emit ctx.b (Isa.Mov (d, rs))
  | Expr.Load (a, idx) ->
    let ri = lower_expr ctx ~array_id idx in
    let d = reg_def ctx v in
    Program.Builder.emit ctx.b (Isa.Load (d, array_id a, ri))
  | Expr.Unop (op, x) ->
    let rx = lower_expr ctx ~array_id x in
    let d = reg_def ctx v in
    Program.Builder.emit ctx.b (Isa.Un (op, d, rx))
  | Expr.Binop (op, x, y) ->
    let rx = lower_expr ctx ~array_id x in
    let ry = lower_expr ctx ~array_id y in
    let d = reg_def ctx v in
    Program.Builder.emit ctx.b (Isa.Bin (op, d, rx, ry))
  | Expr.Select (c, t, f) ->
    let rc = lower_expr ctx ~array_id c in
    let rt = lower_expr ctx ~array_id t in
    let rf = lower_expr ctx ~array_id f in
    let d = reg_def ctx v in
    Program.Builder.emit ctx.b (Isa.Sel (d, rc, rt, rf))

(* ------------------------------------------------------------------ *)
(* Items and predicated emission.                                      *)

type item =
  | It_fiber of Region.sstmt
  | It_enq of Comm.transfer
  | It_deq of Comm.transfer

let item_preds = function
  | It_fiber s -> s.Region.preds
  | It_enq tr | It_deq tr -> tr.Comm.preds

(* Shared-cache lowering context: ids of the synthetic handshake arrays
   and the canonical slot of each transfer. *)
type shared_info = {
  sh_flag_arr : int;
  sh_data_arr : Types.ty -> int;
  sh_slot : Comm.transfer -> Comm.slot;
}

let shared_slot_of comm =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((tr : Comm.transfer), s) ->
      Hashtbl.replace tbl (tr.Comm.src_core, tr.Comm.dst_core, tr.Comm.ty, tr.Comm.seq) s)
    (Comm.shared_slots comm);
  fun (tr : Comm.transfer) ->
    match
      Hashtbl.find_opt tbl (tr.Comm.src_core, tr.Comm.dst_core, tr.Comm.ty, tr.Comm.seq)
    with
    | Some s -> s
    | None -> codegen_error "transfer %s has no handshake slot" tr.Comm.var

(** Emit a list of predicated items, replicating conditional structure by
    opening and closing branch scopes as the predicate context changes.
    [fiber_of] gives the source fiber each item's instructions are
    attributed to (provenance for the telemetry layer); guard branches are
    attributed to the item they guard. *)
let emit_items ctx ~array_id ~queues ~shared ~fiber_of items =
  let open Program.Builder in
  let stack = ref [] in
  (* innermost first: (pred, end label) *)
  let close_down_to depth =
    while List.length !stack > depth do
      match !stack with
      | (_, lbl) :: rest ->
        place_label ctx.b lbl;
        stack := rest
      | [] -> assert false
    done
  in
  let open_pred (p : Region.pred) =
    let rc = reg_use ctx p.Region.cnd in
    let lbl = fresh_label ctx.b in
    emit ctx.b
      (if p.Region.want then Isa.Bz (rc, lbl) else Isa.Bnz (rc, lbl));
    stack := (p, lbl) :: !stack
  in
  let adjust preds =
    let opened = List.rev_map fst !stack in
    (* length of common prefix *)
    let rec common n os ps =
      match (os, ps) with
      | o :: os', p :: ps' when Region.pred_equal o p -> common (n + 1) os' ps'
      | _ -> n
    in
    let keep = common 0 opened preds in
    close_down_to keep;
    List.iteri (fun i p -> if i >= keep then open_pred p) preds
  in
  List.iter
    (fun it ->
      Program.Builder.set_fiber ctx.b (fiber_of it);
      adjust (item_preds it);
      match it with
      | It_fiber s -> (
        match s.Region.lhs with
        | Region.Lscalar v -> lower_into ctx ~array_id v s.Region.rhs
        | Region.Lstore (a, idx) ->
          let ri = lower_expr ctx ~array_id idx in
          let rv = lower_expr ctx ~array_id s.Region.rhs in
          emit ctx.b (Isa.Store (array_id a, ri, rv)))
      | It_enq tr -> (
        match shared with
        | None ->
          let q =
            Queues.id queues ~src:tr.Comm.src_core ~dst:tr.Comm.dst_core
              ~cls:(qclass_of_ty tr.Comm.ty)
          in
          emit ctx.b (Isa.Enq (q, reg_use ctx tr.Comm.var))
        | Some sh ->
          (* Producer handshake: spin while the slot is still full from
             the previous round, write the value, then set the flag. *)
          let sl = sh.sh_slot tr in
          let r_fidx = creg ctx (Types.VInt sl.Comm.sl_flag) in
          let r_didx = creg ctx (Types.VInt sl.Comm.sl_data) in
          let rt = fresh_reg ctx.b in
          let l_spin = fresh_label ctx.b in
          place_label ctx.b l_spin;
          emit ctx.b (Isa.Load (rt, sh.sh_flag_arr, r_fidx));
          emit ctx.b (Isa.Bnz (rt, l_spin));
          emit ctx.b
            (Isa.Store (sh.sh_data_arr tr.Comm.ty, r_didx, reg_use ctx tr.Comm.var));
          emit ctx.b (Isa.Store (sh.sh_flag_arr, r_fidx, creg ctx (Types.VInt 1))))
      | It_deq tr -> (
        match shared with
        | None ->
          let q =
            Queues.id queues ~src:tr.Comm.src_core ~dst:tr.Comm.dst_core
              ~cls:(qclass_of_ty tr.Comm.ty)
          in
          emit ctx.b (Isa.Deq (reg_def ctx tr.Comm.var, q))
        | Some sh ->
          (* Consumer handshake: spin until the flag is set, read the
             value, then clear the flag to release the slot. *)
          let sl = sh.sh_slot tr in
          let r_fidx = creg ctx (Types.VInt sl.Comm.sl_flag) in
          let r_didx = creg ctx (Types.VInt sl.Comm.sl_data) in
          let rt = fresh_reg ctx.b in
          let l_spin = fresh_label ctx.b in
          place_label ctx.b l_spin;
          emit ctx.b (Isa.Load (rt, sh.sh_flag_arr, r_fidx));
          emit ctx.b (Isa.Bz (rt, l_spin));
          emit ctx.b
            (Isa.Load (reg_def ctx tr.Comm.var, sh.sh_data_arr tr.Comm.ty, r_didx));
          emit ctx.b (Isa.Store (sh.sh_flag_arr, r_fidx, creg ctx (Types.VInt 0)))))
    items;
  close_down_to 0;
  Program.Builder.set_fiber ctx.b Program.no_fiber

(* ------------------------------------------------------------------ *)
(* Constant collection.                                                *)

let consts_of_expr e =
  Expr.fold
    (fun acc e -> match e with Expr.Const v -> v :: acc | _ -> acc)
    [] e

let consts_of_items ~shared items =
  List.concat_map
    (fun it ->
      match it with
      | It_fiber s ->
        consts_of_expr s.Region.rhs
        @ (match s.Region.lhs with
          | Region.Lstore (_, idx) -> consts_of_expr idx
          | Region.Lscalar _ -> [])
      | It_enq tr -> (
        (* Handshake constants (slot indices and the flag value) only
           enter the pool in shared-cache mode, so queues-mode codegen
           is byte-identical to before. *)
        match shared with
        | None -> []
        | Some sh ->
          let sl = sh.sh_slot tr in
          [ Types.VInt sl.Comm.sl_flag; Types.VInt sl.Comm.sl_data; Types.VInt 1 ])
      | It_deq tr -> (
        match shared with
        | None -> []
        | Some sh ->
          let sl = sh.sh_slot tr in
          [ Types.VInt sl.Comm.sl_flag; Types.VInt sl.Comm.sl_data; Types.VInt 0 ]))
    items

(* ------------------------------------------------------------------ *)
(* Top-level generation.                                               *)

type t = {
  program : Program.t;
  cores_used : int;
  live_out_regs : (string * Isa.reg) list;  (** registers on core 0 *)
  com_ops : int;
  queue_pairs_static : int;
  warnings : string list;
}

(** Scalars whose value must be present on [core] before the loop starts:
    live-in scalars it reads, loop-carried scalars it owns (their declared
    initial value seeds the recurrence), and live-out scalars it owns
    (whose declared initial value must survive a zero-trip loop). *)
let entry_vars ~(kernel : Kernel.t) ~(deps : Deps.t) ~cluster_of ~core items =
  let used = ref SS.empty in
  List.iter
    (fun it ->
      match it with
      | It_fiber s ->
        used := SS.union (Region.sstmt_uses s) !used;
        used := SS.union (Region.sstmt_pred_vars s) !used
      | It_enq _ | It_deq _ -> ())
    items;
  let live_in_here = SS.inter !used deps.Deps.live_in in
  let carried_here =
    SS.filter
      (fun v ->
        match Deps.SM.find_opt v deps.Deps.defs with
        | Some (d :: _) -> cluster_of.(d) = core
        | Some [] | None -> false)
      deps.Deps.loop_carried
  in
  let live_out_here =
    List.fold_left
      (fun acc v ->
        match Deps.SM.find_opt v deps.Deps.owners with
        | Some d when cluster_of.(d) = core -> SS.add v acc
        | Some _ | None -> acc)
      SS.empty kernel.Kernel.live_out
  in
  SS.elements (SS.union (SS.union live_in_here carried_here) live_out_here)

let generate ~(kernel : Kernel.t) ~(region : Region.t) ~(deps : Deps.t)
    ~(cluster_of : int array) ~(n_clusters : int) ~(order : int list)
    ~(comm : Comm.t) ?(mode = Comm.Queues) ~line_size () =
  let cores = n_clusters in
  let tenv = Cost.region_tenv region in
  let n_flags, n_i64, n_f64 = Comm.shared_slot_counts comm in
  let layout =
    let decls = kernel.Kernel.arrays in
    let decls =
      match mode with
      | Comm.Queues -> decls
      | Comm.Shared_cache ->
        (* Synthetic handshake arrays live after the kernel's arrays so
           kernel addresses are unchanged between modes. *)
        let extra =
          (if n_flags > 0 then
             [ { Kernel.a_name = Comm.flag_array_name; a_ty = Types.I64;
                 a_len = n_flags } ]
           else [])
          @ (if n_i64 > 0 then
               [ { Kernel.a_name = Comm.i64_array_name; a_ty = Types.I64;
                   a_len = n_i64 } ]
             else [])
          @
          if n_f64 > 0 then
            [ { Kernel.a_name = Comm.f64_array_name; a_ty = Types.F64;
                a_len = n_f64 } ]
          else []
        in
        decls @ extra
    in
    Program.layout_arrays ~line:line_size decls
  in
  let array_id name =
    let rec go i =
      if i >= Array.length layout then codegen_error "unknown array %s" name
      else if String.equal layout.(i).Program.arr_name name then i
      else go (i + 1)
    in
    go 0
  in
  let stmts = Array.of_list region.Region.stmts in
  let pos = Array.make (Array.length stmts) 0 in
  List.iteri (fun i f -> pos.(f) <- i) order;
  (* Inverse of [pos]: schedule position -> fiber id, used to attribute
     communication instructions to the fiber that produced the value. *)
  let fiber_at = Array.make (List.length order) Program.no_fiber in
  List.iteri (fun i f -> fiber_at.(i) <- f) order;
  let item_fiber = function
    | It_fiber s -> s.Region.id
    | It_enq tr | It_deq tr ->
      if tr.Comm.enq_anchor >= 0 && tr.Comm.enq_anchor < Array.length fiber_at
      then fiber_at.(tr.Comm.enq_anchor)
      else Program.no_fiber
  in
  let queues = Queues.create () in
  let shared =
    match mode with
    | Comm.Queues -> None
    | Comm.Shared_cache ->
      if n_flags = 0 then None
      else
        Some
          {
            sh_flag_arr = array_id Comm.flag_array_name;
            sh_data_arr =
              (fun ty ->
                match ty with
                | Types.I64 -> array_id Comm.i64_array_name
                | Types.F64 -> array_id Comm.f64_array_name);
            sh_slot = shared_slot_of comm;
          }
  in
  (* Build per-core items with sort keys: (anchor, phase, tiebreak). *)
  let items_of_core core =
    let fibers =
      List.filter_map
        (fun f ->
          if cluster_of.(f) = core then
            Some ((pos.(f), 1, f), It_fiber stmts.(f))
          else None)
        order
    in
    let comm_items =
      List.map
        (fun (key, enq, tr) -> (key, if enq then It_enq tr else It_deq tr))
        (Comm.placement comm ~core)
    in
    List.map snd
      (List.sort (fun (k1, _) (k2, _) -> compare k1 k2) (fibers @ comm_items))
  in
  let declared_scalars =
    List.map (fun (d : Kernel.scalar_decl) -> d) kernel.Kernel.scalars
  in
  let scalar_decl v =
    match Kernel.find_scalar kernel v with
    | Some d -> d
    | None -> codegen_error "scalar %s is not declared" v
  in
  let live_out_transfers =
    List.filter_map
      (fun v ->
        match Deps.SM.find_opt v deps.Deps.owners with
        | Some d when cluster_of.(d) <> 0 -> Some (v, cluster_of.(d))
        | Some _ | None -> None)
      kernel.Kernel.live_out
  in
  let lo = kernel.Kernel.lo and hi = kernel.Kernel.hi in
  let ty_of_var v = Expr.infer tenv (Expr.Var v) in
  let emit_loop ctx items =
    let open Program.Builder in
    let r_idx = reg_def ctx kernel.Kernel.index in
    emit ctx.b (Isa.Li (r_idx, Types.VInt lo));
    let l_top = fresh_label ctx.b and l_exit = fresh_label ctx.b in
    (* Guard against an empty iteration space. *)
    let r_hi = creg ctx (Types.VInt hi) in
    let r_t = fresh_reg ctx.b in
    emit ctx.b (Isa.Bin (Types.Lt, r_t, r_idx, r_hi));
    emit ctx.b (Isa.Bz (r_t, l_exit));
    place_label ctx.b l_top;
    emit_items ctx ~array_id ~queues ~shared ~fiber_of:item_fiber items;
    emit ctx.b (Isa.Bin (Types.Add, r_idx, r_idx, creg ctx (Types.VInt 1)));
    emit ctx.b (Isa.Bin (Types.Lt, r_t, r_idx, r_hi));
    emit ctx.b (Isa.Bnz (r_t, l_top));
    place_label ctx.b l_exit
  in
  let core_programs = Array.make (max cores 1) None in
  let live_out_regs = ref [] in
  (* Primary core. *)
  let () =
    let ctx = new_ctx 0 in
    let items = items_of_core 0 in
    let consts =
      Types.VInt 0 :: Types.VInt 1 :: Types.VInt hi
      :: consts_of_items ~shared items
    in
    emit_const_pool ctx consts;
    (* Materialize every declared scalar: they are runtime parameters of
       the region held by the primary thread. *)
    List.iter
      (fun (d : Kernel.scalar_decl) ->
        let r = reg_def ctx d.Kernel.s_name in
        Program.Builder.emit ctx.b (Isa.Li (r, d.Kernel.s_init)))
      declared_scalars;
    (* Spawn protocol: wake each secondary (function pointer stands in as a
       nonzero token) and send its entry values. *)
    for c = 1 to cores - 1 do
      let q_int = Queues.id queues ~src:0 ~dst:c ~cls:Isa.Qint in
      Program.Builder.emit ctx.b (Isa.Enq (q_int, creg ctx (Types.VInt 1)));
      List.iter
        (fun v ->
          let q =
            Queues.id queues ~src:0 ~dst:c ~cls:(qclass_of_ty (ty_of_var v))
          in
          Program.Builder.emit ctx.b (Isa.Enq (q, reg_use ctx v)))
        (entry_vars ~kernel ~deps ~cluster_of ~core:c (items_of_core c))
    done;
    emit_loop ctx items;
    (* Collect live-outs owned by secondaries, then completion tokens. *)
    for c = 1 to cores - 1 do
      List.iter
        (fun (v, owner) ->
          if owner = c then begin
            let q =
              Queues.id queues ~src:c ~dst:0 ~cls:(qclass_of_ty (ty_of_var v))
            in
            Program.Builder.emit ctx.b (Isa.Deq (reg_def ctx v, q))
          end)
        live_out_transfers;
      let q_int = Queues.id queues ~src:c ~dst:0 ~cls:Isa.Qint in
      let r = Program.Builder.fresh_reg ctx.b in
      Program.Builder.emit ctx.b (Isa.Deq (r, q_int))
    done;
    (* Halt tokens terminate the secondary drivers. *)
    for c = 1 to cores - 1 do
      let q_int = Queues.id queues ~src:0 ~dst:c ~cls:Isa.Qint in
      Program.Builder.emit ctx.b (Isa.Enq (q_int, creg ctx (Types.VInt 0)))
    done;
    Program.Builder.emit ctx.b Isa.Halt;
    live_out_regs :=
      List.map
        (fun v ->
          ignore (scalar_decl v);
          (v, reg_use ctx v))
        kernel.Kernel.live_out;
    core_programs.(0) <- Some (Program.Builder.finish ctx.b)
  in
  (* Secondary cores: the Section III-G driver around the outlined body. *)
  for c = 1 to cores - 1 do
    let ctx = new_ctx c in
    let items = items_of_core c in
    let consts =
      Types.VInt 1 :: Types.VInt hi :: consts_of_items ~shared items
    in
    emit_const_pool ctx consts;
    let l_driver = Program.Builder.fresh_label ctx.b
    and l_halt = Program.Builder.fresh_label ctx.b in
    Program.Builder.place_label ctx.b l_driver;
    let q_from_primary = Queues.id queues ~src:0 ~dst:c ~cls:Isa.Qint in
    let r_fp = Program.Builder.fresh_reg ctx.b in
    Program.Builder.emit ctx.b (Isa.Deq (r_fp, q_from_primary));
    Program.Builder.emit ctx.b (Isa.Bz (r_fp, l_halt));
    List.iter
      (fun v ->
        let q =
          Queues.id queues ~src:0 ~dst:c ~cls:(qclass_of_ty (ty_of_var v))
        in
        Program.Builder.emit ctx.b (Isa.Deq (reg_def ctx v, q)))
      (entry_vars ~kernel ~deps ~cluster_of ~core:c items);
    emit_loop ctx items;
    List.iter
      (fun (v, owner) ->
        if owner = c then begin
          let q =
            Queues.id queues ~src:c ~dst:0 ~cls:(qclass_of_ty (ty_of_var v))
          in
          Program.Builder.emit ctx.b (Isa.Enq (q, reg_use ctx v))
        end)
      live_out_transfers;
    let q_done = Queues.id queues ~src:c ~dst:0 ~cls:Isa.Qint in
    Program.Builder.emit ctx.b (Isa.Enq (q_done, creg ctx (Types.VInt 1)));
    Program.Builder.emit ctx.b (Isa.Jmp l_driver);
    Program.Builder.place_label ctx.b l_halt;
    Program.Builder.emit ctx.b Isa.Halt;
    core_programs.(c) <- Some (Program.Builder.finish ctx.b)
  done;
  let program =
    {
      Program.cores =
        Array.map
          (function Some p -> p | None -> assert false)
          core_programs;
      queues = Queues.to_array queues;
      arrays = layout;
    }
  in
  {
    program;
    cores_used = cores;
    live_out_regs = !live_out_regs;
    com_ops = comm.Comm.com_ops;
    queue_pairs_static = List.length comm.Comm.pairs_used;
    warnings = comm.Comm.warnings;
  }

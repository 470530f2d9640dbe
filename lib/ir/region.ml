(** Flattened, predicated loop-body regions.

    This is the compiler's working representation.  Two things happen when
    a kernel body is converted to a region:

    - Compound expressions are split into multiple statements to bound the
      expression-tree height (the pre-processing of Section III-A that
      "makes it possible to detect even more fine-grained parallelism").
    - Structured conditionals are dissolved into per-statement
      control-flow predicates (Section III-E: "a conditional variable
      paired with a value such that the statement can be executed only if
      the variable has the corresponding value").

    A region is a flat list of single-assignment-style statements, each
    carrying its predicate context and the source line of the original
    statement it came from (used by the proximity merge heuristic). *)

open Types
module String_set = Set.Make (String)
module String_map = Map.Make (String)

type pred = { cnd : string; want : bool }

let pred_equal p q = String.equal p.cnd q.cnd && p.want = q.want

let preds_equal ps qs =
  List.length ps = List.length qs && List.for_all2 pred_equal ps qs

(** [ps] is a prefix of [qs]. *)
let rec preds_prefix ps qs =
  match (ps, qs) with
  | [], _ -> true
  | _ :: _, [] -> false
  | p :: ps', q :: qs' -> pred_equal p q && preds_prefix ps' qs'

let pp_pred ppf p = Fmt.pf ppf "%s%s" (if p.want then "" else "!") p.cnd

let pp_preds ppf = function
  | [] -> ()
  | ps -> Fmt.pf ppf "@[[%a]@] " Fmt.(list ~sep:comma pp_pred) ps

type lhs =
  | Lscalar of string
  | Lstore of string * Expr.t  (** array and (simple) index expression *)

type sstmt = {
  id : int;  (** position in the region, program order *)
  line : int;  (** original source statement index, for proximity *)
  preds : pred list;  (** outermost-first control-flow predicates *)
  lhs : lhs;
  rhs : Expr.t;
}

type t = {
  kernel : Kernel.t;  (** header: iteration space, declarations, live-outs *)
  stmts : sstmt list;
}

let pp_sstmt ppf s =
  match s.lhs with
  | Lscalar v -> Fmt.pf ppf "%a%s = %a" pp_preds s.preds v Expr.pp s.rhs
  | Lstore (a, i) ->
    Fmt.pf ppf "%a%s[%a] = %a" pp_preds s.preds a Expr.pp i Expr.pp s.rhs

let pp ppf r =
  Fmt.pf ppf "@[<v>region %s:@,%a@]" r.kernel.Kernel.name
    Fmt.(list ~sep:(any "@,") pp_sstmt)
    r.stmts

let default_max_height = 2

(** An index expression is "simple" when it is a constant or a variable;
    anything else is hoisted to a temporary so loads stay leaves. *)
let is_simple = function Expr.Const _ | Expr.Var _ -> true | _ -> false

let of_kernel ?(max_height = default_max_height) (k : Kernel.t) =
  let counter = ref 0 in
  let temp_prefix = "%t" in
  let fresh () =
    incr counter;
    Printf.sprintf "%s%d" temp_prefix !counter
  in
  let out = ref [] in
  let next_id = ref 0 in
  let emit ~line ~preds lhs rhs =
    let id = !next_id in
    incr next_id;
    out := { id; line; preds; lhs; rhs } :: !out
  in
  let line = ref (-1) in
  (* Reduce an expression to height <= max_height, emitting temporaries for
     extracted subtrees.  Returns the residual expression and its height. *)
  let rec reduce preds e =
    match e with
    | Expr.Const _ | Expr.Var _ -> (e, 0)
    | Expr.Load (a, idx) ->
      let idx', _ = reduce preds idx in
      let idx' =
        if is_simple idx' then idx'
        else begin
          let t = fresh () in
          emit ~line:!line ~preds (Lscalar t) idx';
          Expr.Var t
        end
      in
      (Expr.Load (a, idx'), 0)
    | Expr.Unop (op, a) ->
      let a' = reduce_child preds a in
      clamp preds (Expr.Unop (op, fst a')) (1 + snd a')
    | Expr.Binop (op, a, b) ->
      let a' = reduce_child preds a and b' = reduce_child preds b in
      clamp preds
        (Expr.Binop (op, fst a', fst b'))
        (1 + max (snd a') (snd b'))
    | Expr.Select (c, t, f) ->
      let c' = reduce_child preds c
      and t' = reduce_child preds t
      and f' = reduce_child preds f in
      clamp preds
        (Expr.Select (fst c', fst t', fst f'))
        (1 + max (snd c') (max (snd t') (snd f')))
  (* Children may have height at most max_height - 1 so the parent fits. *)
  and reduce_child preds e =
    let e', h = reduce preds e in
    if h <= max_height - 1 then (e', h)
    else begin
      let t = fresh () in
      emit ~line:!line ~preds (Lscalar t) e';
      (Expr.Var t, 0)
    end
  and clamp _preds e h =
    (* reduce_child guarantees h <= max_height here. *)
    (e, h)
  in
  let reduce_top preds e = fst (reduce preds e) in
  let hoist_cond preds c =
    match reduce_top preds c with
    | Expr.Var v -> v
    | c' ->
      let t = fresh () in
      emit ~line:!line ~preds (Lscalar t) c';
      t
  in
  let rec walk preds s =
    incr line;
    let this_line = !line in
    match s with
    | Stmt.Assign (v, e) ->
      let e' = reduce_top preds e in
      line := this_line;
      emit ~line:this_line ~preds (Lscalar v) e'
    | Stmt.Store (a, idx, e) ->
      let idx' = reduce_top preds idx in
      let idx' =
        if is_simple idx' then idx'
        else begin
          let t = fresh () in
          emit ~line:this_line ~preds (Lscalar t) idx';
          Expr.Var t
        end
      in
      let e' = reduce_top preds e in
      emit ~line:this_line ~preds (Lstore (a, idx')) e'
    | Stmt.If (c, t, f) ->
      let cv = hoist_cond preds c in
      List.iter (walk (preds @ [ { cnd = cv; want = true } ])) t;
      List.iter (walk (preds @ [ { cnd = cv; want = false } ])) f
  in
  List.iter (walk []) k.Kernel.body;
  { kernel = k; stmts = List.rev !out }

(** Evaluate a region directly (used to validate that flattening preserves
    kernel semantics). *)
let eval ?(workload = []) (r : t) =
  let k = r.kernel in
  let st = Eval.init_state k workload in
  let pred_holds p =
    match Hashtbl.find_opt st.Eval.scalars p.cnd with
    | Some v -> Types.value_is_true v = p.want
    | None -> Eval.runtime_error "predicate %s undefined" p.cnd
  in
  for i = k.Kernel.lo to k.Kernel.hi - 1 do
    Hashtbl.replace st.Eval.scalars k.Kernel.index (VInt i);
    List.iter
      (fun s ->
        if List.for_all pred_holds s.preds then
          match s.lhs with
          | Lscalar v ->
            Hashtbl.replace st.Eval.scalars v (Eval.eval_expr st s.rhs)
          | Lstore (a, idx) -> (
            let arr = Eval.get_array st a in
            match Eval.eval_expr st idx with
            | VInt n ->
              Eval.check_bounds a arr n;
              arr.(n) <- Eval.eval_expr st s.rhs
            | VFloat _ -> Eval.runtime_error "f64 store index"))
      r.stmts
  done;
  Eval.result_of_state k st

(** Scalar variables read by one flat statement, including loads' index
    variables but excluding predicate variables. *)
let sstmt_uses s =
  let from_rhs = Expr.vars s.rhs in
  match s.lhs with
  | Lscalar _ -> from_rhs
  | Lstore (_, idx) -> String_set.union from_rhs (Expr.vars idx)

(** The scalar defined by a flat statement, if any. *)
let sstmt_def s = match s.lhs with Lscalar v -> Some v | Lstore _ -> None

(** Predicate variables a statement's execution depends on. *)
let sstmt_pred_vars s =
  List.fold_left (fun acc p -> String_set.add p.cnd acc) String_set.empty
    s.preds

(** Total compute ops in the region. *)
let op_count r =
  List.fold_left (fun acc s -> acc + Expr.op_count s.rhs +
    (match s.lhs with Lstore (_, i) -> Expr.op_count i | Lscalar _ -> 0))
    0 r.stmts

(** Expression trees.

    Statements carry one expression tree each; the fiber-partitioning
    algorithm of Section III-A works directly on these trees.  Leaves are
    constants, scalar variable reads, and array loads; internal nodes are
    arithmetic/logic operators and selects. *)

open Types

module String_set = Set.Make (String)

type t =
  | Const of value
  | Var of string
  | Load of string * t  (** [Load (a, idx)]: read element [idx] of array [a] *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Select of t * t * t
      (** [Select (c, t, f)]: value of [t] if [c] is true else [f]; both
          arms are evaluated (this is what rollback-free control-flow
          speculation lowers to, Section III-H) *)

let rec pp ppf = function
  | Const v -> pp_value_human ppf v
  | Var v -> Fmt.string ppf v
  | Load (a, idx) -> Fmt.pf ppf "%s[%a]" a pp idx
  | Unop (op, e) -> Fmt.pf ppf "%a(%a)" pp_unop op pp e
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %a %a)" pp a pp_binop op pp b
  | Select (c, t, f) -> Fmt.pf ppf "(%a ? %a : %a)" pp c pp t pp f

let children = function
  | Const _ | Var _ -> []
  | Load (_, idx) -> [ idx ]
  | Unop (_, e) -> [ e ]
  | Binop (_, a, b) -> [ a; b ]
  | Select (c, t, f) -> [ c; t; f ]

let rec iter f e =
  f e;
  List.iter (iter f) (children e)

let rec fold f acc e = List.fold_left (fold f) (f acc e) (children e)

(** Scalar variables read anywhere in the expression. *)
let vars e =
  fold
    (fun acc e ->
      match e with Var v -> String_set.add v acc | _ -> acc)
    String_set.empty e

(** Arrays read anywhere in the expression. *)
let arrays_read e =
  fold
    (fun acc e ->
      match e with Load (a, _) -> String_set.add a acc | _ -> acc)
    String_set.empty e

(** Loads appearing in the expression, with their index expressions. *)
let loads e =
  List.rev
    (fold
       (fun acc e -> match e with Load (a, i) -> (a, i) :: acc | _ -> acc)
       [] e)

(** Number of compute operators (unops, binops, selects). *)
let op_count e =
  fold
    (fun acc e ->
      match e with
      | Unop _ | Binop _ | Select _ -> acc + 1
      | Const _ | Var _ | Load _ -> acc)
    0 e

(** Height of the compute tree.  Leaves (constants, variables, loads) have
    height 0; a load's index expression does contribute height, since index
    arithmetic is real computation. *)
let rec height = function
  | Const _ | Var _ -> 0
  | Load (_, idx) -> height idx
  | Unop (_, e) -> 1 + height e
  | Binop (_, a, b) -> 1 + max (height a) (height b)
  | Select (c, t, f) -> 1 + max (height c) (max (height t) (height f))

(** Type environment: scalar types and array element types. *)
type tenv = { var_ty : string -> ty; array_ty : string -> ty }

let rec infer env e =
  match e with
  | Const v -> ty_of_value v
  | Var v -> env.var_ty v
  | Load (a, idx) ->
    (match infer env idx with
    | I64 -> env.array_ty a
    | F64 -> type_error "array %s indexed with f64 expression" a)
  | Unop (op, a) -> unop_result_ty op (infer env a)
  | Binop (op, a, b) ->
    let ta = infer env a and tb = infer env b in
    if ta <> tb then
      type_error "binop %s: operand types %a and %a differ" (binop_name op)
        pp_ty ta pp_ty tb
    else binop_result_ty op ta
  | Select (c, t, f) ->
    (match infer env c with
    | I64 ->
      let tt = infer env t and tf = infer env f in
      if tt <> tf then type_error "select: arm types differ" else tt
    | F64 -> type_error "select: condition has type f64")

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> value_equal x y
  | Var x, Var y -> String.equal x y
  | Load (ax, ix), Load (ay, iy) -> String.equal ax ay && equal ix iy
  | Unop (ox, x), Unop (oy, y) -> ox = oy && equal x y
  | Binop (ox, x1, x2), Binop (oy, y1, y2) ->
    ox = oy && equal x1 y1 && equal x2 y2
  | Select (c1, t1, f1), Select (c2, t2, f2) ->
    equal c1 c2 && equal t1 t2 && equal f1 f2
  | (Const _ | Var _ | Load _ | Unop _ | Binop _ | Select _), _ -> false

(** Substitute variables by expressions (capture-free: expressions have no
    binders). *)
let rec subst map e =
  match e with
  | Const _ -> e
  | Var v -> (match map v with Some e' -> e' | None -> e)
  | Load (a, idx) -> Load (a, subst map idx)
  | Unop (op, a) -> Unop (op, subst map a)
  | Binop (op, a, b) -> Binop (op, subst map a, subst map b)
  | Select (c, t, f) -> Select (subst map c, subst map t, subst map f)

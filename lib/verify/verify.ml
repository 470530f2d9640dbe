(** Static queue-protocol verifier — see verify.mli for the contract.

    The implementation works in four stages:

    1. {b structural parse}: each core's code is parsed into a tree of
       straight-line ops, forward-branch guard scopes ([Cond]), backward
       branches ([Loop]), and loop-escaping forward branches ([Break]).
       The code generator only emits reducible control flow, so anything
       else is reported as a [Structure] violation.

    2. {b summarization}: the tree is reduced to the communication
       operations it can execute, each annotated with the polarity path
       of its enclosing guards (paths reset at loop boundaries).  The
       secondary-core driver loop — recognizable as
       [Deq tok; branch-to-halt-if-zero; ...] — is rewritten into its
       per-activation trace: one leading control-token dequeue, the body
       once, one trailing control-token dequeue (the halt token), which
       makes the driver comparable against the primary's run-once spawn
       / collect / halt-token protocol.

    3. {b per-queue alignment}: for every queue, the producer's enqueue
       summary must be isomorphic to the consumer's dequeue summary —
       same loop nesting, same guard polarities, same counts.  Polarity
       paths abstract predicate identity (the two cores hold the
       predicate in different registers), which is exactly the agreement
       the comm pass guarantees: a transfer's enqueue and dequeue carry
       the same predicate list.

    4. {b whole-program checks}: register classes are inferred by a
       forward dataflow over each core's CFG and checked at every
       enqueue; the capacity-bounded wait-for graph is built over an
       unrolling of [queue_len + 4] iterations and searched for cycles;
       and, when the comm plan is available, the in-loop interleaving of
       communication instructions is replayed against the plan's anchor
       order and suffix-min dequeue hoisting. *)

open Finepar_ir
open Finepar_machine
module Comm = Finepar_transform.Comm

type check =
  | Structure
  | Endpoints
  | Typing
  | Balance
  | Fifo
  | Deadlock
  | Protocol
  | Handshake

let check_name = function
  | Structure -> "structure"
  | Endpoints -> "endpoints"
  | Typing -> "typing"
  | Balance -> "balance"
  | Fifo -> "fifo"
  | Deadlock -> "deadlock"
  | Protocol -> "protocol"
  | Handshake -> "handshake"

type violation = {
  v_check : check;
  v_core : int option;
  v_queue : int option;
  v_pc : int option;
  v_message : string;
}

let pp_violation ppf v =
  let opt name ppf = function
    | Some x -> Fmt.pf ppf " %s %d" name x
    | None -> ()
  in
  Fmt.pf ppf "[%s]%a%a%a %s" (check_name v.v_check) (opt "queue") v.v_queue
    (opt "core") v.v_core (opt "pc") v.v_pc v.v_message

type result = {
  violations : violation list;
  queues_checked : int;
  ops_checked : int;
}

let ok r = r.violations = []

exception Rejected of string * violation list

let () =
  Printexc.register_printer (function
    | Rejected (kernel, vs) ->
      Some
        (Fmt.str "Finepar_verify.Verify.Rejected(%s): %a" kernel
           (Fmt.list ~sep:(Fmt.any "; ") pp_violation)
           vs)
    | _ -> None)

let qclass_of_ty = function Types.I64 -> Isa.Qint | Types.F64 -> Isa.Qfloat
let qclass_name = function Isa.Qint -> "int" | Isa.Qfloat -> "float"

(* ------------------------------------------------------------------ *)
(* Structural parse.                                                   *)

type node =
  | Op of int  (** pc *)
  | Cond of { c_pc : int; taken_when : bool; body : node list }
      (** forward guard: [body] executes when the branch register is
          nonzero ([taken_when = true], a [Bz] skip) or zero *)
  | Loop of { head : int; latch : int; body : node list }
  | Break of { b_pc : int }  (** forward branch escaping the loop *)

exception Unstructured of int * string

let parse_core (cp : Program.core_program) =
  let code = cp.Program.code in
  let n = Array.length code in
  let target l = cp.Program.label_pos.(l) in
  (* Loop headers: target position -> back-edge positions.  A header
     can close several nested loops at once — e.g. a shared-cache spin
     handshake lowered as the first body item of a kernel loop shares
     its head pc with the enclosing loop — so every latch is kept and
     peeled outermost-first below. *)
  let latch_of = Hashtbl.create 8 in
  Array.iteri
    (fun pc instr ->
      match instr with
      | Isa.Bz (_, l) | Isa.Bnz (_, l) | Isa.Jmp l ->
        let t = target l in
        if t <= pc then begin
          let cur = Option.value (Hashtbl.find_opt latch_of t) ~default:[] in
          Hashtbl.replace latch_of t (pc :: cur)
        end
      | _ -> ())
    code;
  let rec region lo hi =
    let items = ref [] in
    let pc = ref lo in
    while !pc < hi do
      let here = !pc in
      match Hashtbl.find_opt latch_of here with
      | Some latches ->
        let latch = List.fold_left max (-1) latches in
        if latch >= hi then
          raise (Unstructured (here, "loop crosses a scope boundary"));
        (match List.filter (fun p -> p <> latch) latches with
        | [] -> Hashtbl.remove latch_of here
        | inner -> Hashtbl.replace latch_of here inner);
        let body = region here latch in
        items := Loop { head = here; latch; body } :: !items;
        pc := latch + 1
      | None -> (
        let guard taken_when l =
          let t = target l in
          if t <= here then
            raise (Unstructured (here, "irreducible backward branch"))
          else if t <= hi then begin
            let body = region (here + 1) t in
            items := Cond { c_pc = here; taken_when; body } :: !items;
            pc := t
          end
          else begin
            items := Break { b_pc = here } :: !items;
            incr pc
          end
        in
        match code.(here) with
        | Isa.Bz (_, l) -> guard true l
        | Isa.Bnz (_, l) -> guard false l
        | Isa.Jmp _ -> raise (Unstructured (here, "unsupported forward jump"))
        | _ ->
          items := Op here :: !items;
          incr pc)
    done;
    List.rev !items
  in
  region 0 n

(* ------------------------------------------------------------------ *)
(* Summaries: communication ops with guard-polarity paths.             *)

type qop = { o_pc : int; o_queue : int; o_enq : bool; o_path : bool list }

type pitem =
  | P_op of qop
  | P_loop of { l_path : bool list; l_head : int; l_items : pitem list }

(* The secondary driver: a loop whose body starts with a control-token
   dequeue immediately followed by a break-if-zero on the token. *)
let driver_pattern code body =
  match body with
  | Op pc0 :: Break { b_pc } :: rest -> (
    match (code.(pc0), code.(b_pc)) with
    | Isa.Deq (r, q), Isa.Bz (r', _) when r = r' -> Some (pc0, q, rest)
    | _ -> None)
  | _ -> None

(* [summarize] flattens guard scopes into polarity paths (reset inside
   loops) and rewrites driver loops into one activation trace bracketed
   by the spawn and halt control-token dequeues.  Returns the items and
   the recognized handshakes (control queue, token dequeue pc). *)
let summarize code nodes =
  let handshakes = ref [] in
  let rec go path nodes =
    List.concat_map
      (fun nd ->
        match nd with
        | Op pc -> (
          match code.(pc) with
          | Isa.Enq (q, _) ->
            [ P_op { o_pc = pc; o_queue = q; o_enq = true; o_path = path } ]
          | Isa.Deq (_, q) ->
            [ P_op { o_pc = pc; o_queue = q; o_enq = false; o_path = path } ]
          | _ -> [])
        | Break _ -> []
        | Cond { taken_when; body; _ } -> go (path @ [ taken_when ]) body
        | Loop { head; body; _ } -> (
          match driver_pattern code body with
          | Some (tok_pc, q, rest) ->
            handshakes := (q, tok_pc) :: !handshakes;
            let tok =
              P_op { o_pc = tok_pc; o_queue = q; o_enq = false; o_path = path }
            in
            (tok :: go path rest) @ [ tok ]
          | None ->
            [ P_loop { l_path = path; l_head = head; l_items = go [] body } ]))
      nodes
  in
  let items = go [] nodes in
  (items, List.rev !handshakes)

(* Ops of one queue and one direction, preserving loop structure. *)
let rec filter_ops ~queue ~enq items =
  List.filter_map
    (function
      | P_op o when o.o_queue = queue && o.o_enq = enq -> Some (P_op o)
      | P_op _ -> None
      | P_loop l -> (
        match filter_ops ~queue ~enq l.l_items with
        | [] -> None
        | inner -> Some (P_loop { l with l_items = inner })))
    items

let path_str path =
  if path = [] then "(none)"
  else String.concat "" (List.map (fun b -> if b then "+" else "-") path)

let rec count_ops items =
  List.fold_left
    (fun acc it ->
      match it with
      | P_op _ -> acc + 1
      | P_loop l -> acc + count_ops l.l_items)
    0 items

let first_pc items =
  match items with
  | P_op o :: _ -> Some o.o_pc
  | P_loop { l_head; _ } :: _ -> Some l_head
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Balance: producer enqueues vs consumer dequeues, per queue.         *)

(* Structural isomorphism of the two summaries; returns the first
   mismatch as a message with the offending side's position. *)
let rec align_balance prod cons =
  match (prod, cons) with
  | [], [] -> None
  | P_op p :: ps, P_op c :: cs ->
    if p.o_path <> c.o_path then
      Some
        ( Some p.o_pc,
          Fmt.str
            "guard polarity mismatch: enqueue at producer pc %d runs under \
             %s but the matching dequeue at consumer pc %d runs under %s"
            p.o_pc (path_str p.o_path) c.o_pc (path_str c.o_path) )
    else align_balance ps cs
  | P_loop lp :: ps, P_loop lc :: cs ->
    if lp.l_path <> lc.l_path then
      Some
        ( Some lp.l_head,
          Fmt.str
            "loop guard mismatch: producer loop at pc %d under %s, consumer \
             loop at pc %d under %s"
            lp.l_head (path_str lp.l_path) lc.l_head (path_str lc.l_path) )
    else begin
      match align_balance lp.l_items lc.l_items with
      | Some _ as m -> m
      | None -> align_balance ps cs
    end
  | P_op p :: _, P_loop lc :: _ ->
    Some
      ( Some p.o_pc,
        Fmt.str
          "producer enqueues once at pc %d where the consumer dequeues in a \
           loop at pc %d"
          p.o_pc lc.l_head )
  | P_loop lp :: _, P_op c :: _ ->
    Some
      ( Some lp.l_head,
        Fmt.str
          "producer enqueues in a loop at pc %d where the consumer dequeues \
           once at pc %d"
          lp.l_head c.o_pc )
  | (_ :: _ as rest), [] ->
    Some
      ( first_pc rest,
        Fmt.str "producer has %d unmatched enqueue(s)" (count_ops rest) )
  | [], (_ :: _ as rest) ->
    Some
      ( first_pc rest,
        Fmt.str "consumer has %d unmatched dequeue(s)" (count_ops rest) )

(* ------------------------------------------------------------------ *)
(* Typing: register-class dataflow, checked at every enqueue.          *)

type cls = Bot | Cint | Cfloat | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Cint, Cint -> Cint
  | Cfloat, Cfloat -> Cfloat
  | _ -> Top

let cls_of_ty = function Types.I64 -> Cint | Types.F64 -> Cfloat
let ty_of_cls = function Cint -> Some Types.I64 | Cfloat -> Some Types.F64 | Bot | Top -> None
let cls_name = function Cint -> "int" | Cfloat -> "float" | Bot -> "undefined" | Top -> "unknown"

let typing_check add (program : Program.t) =
  let queues = program.Program.queues in
  let nq = Array.length queues in
  Array.iteri
    (fun core (cp : Program.core_program) ->
      let code = cp.Program.code in
      let n = Array.length code in
      if n > 0 && cp.Program.n_regs > 0 then begin
        let nr = cp.Program.n_regs in
        let states = Array.make n [||] in
        let succs pc =
          match code.(pc) with
          | Isa.Bz (_, l) | Isa.Bnz (_, l) ->
            [ pc + 1; cp.Program.label_pos.(l) ]
          | Isa.Jmp l -> [ cp.Program.label_pos.(l) ]
          | Isa.Halt -> []
          | _ -> [ pc + 1 ]
        in
        let transfer st pc =
          let st = Array.copy st in
          let set d c = st.(d) <- c in
          (match code.(pc) with
          | Isa.Li (d, v) -> set d (cls_of_ty (Types.ty_of_value v))
          | Isa.Mov (d, s) -> set d st.(s)
          | Isa.Un (op, d, s) ->
            set d
              (match op with
              | Types.To_int -> Cint
              | Types.To_float -> Cfloat
              | _ -> (
                match ty_of_cls st.(s) with
                | Some ty -> (
                  try cls_of_ty (Types.unop_result_ty op ty)
                  with Types.Type_error _ -> Top)
                | None -> st.(s)))
          | Isa.Bin (op, d, a, b) ->
            set d
              (if Types.is_comparison op then Cint
               else
                 match ty_of_cls (join st.(a) st.(b)) with
                 | Some ty -> (
                   try cls_of_ty (Types.binop_result_ty op ty)
                   with Types.Type_error _ -> Top)
                 | None -> Top)
          | Isa.Sel (d, _, tr, fr) -> set d (join st.(tr) st.(fr))
          | Isa.Load (d, arr, _) ->
            set d (cls_of_ty program.Program.arrays.(arr).Program.arr_ty)
          | Isa.Deq (d, q) ->
            set d
              (if q >= 0 && q < nq then
                 match queues.(q).Isa.cls with
                 | Isa.Qint -> Cint
                 | Isa.Qfloat -> Cfloat
               else Top)
          | Isa.Store _ | Isa.Enq _ | Isa.Bz _ | Isa.Bnz _ | Isa.Jmp _
          | Isa.Halt ->
            ());
          st
        in
        let work = Queue.create () in
        states.(0) <- Array.make nr Bot;
        Queue.add 0 work;
        while not (Queue.is_empty work) do
          let pc = Queue.pop work in
          let out = transfer states.(pc) pc in
          List.iter
            (fun s ->
              if s < n then
                if states.(s) = [||] then begin
                  states.(s) <- out;
                  Queue.add s work
                end
                else begin
                  let changed = ref false in
                  let merged =
                    Array.mapi
                      (fun i c ->
                        let j = join c out.(i) in
                        if j <> c then changed := true;
                        j)
                      states.(s)
                  in
                  if !changed then begin
                    states.(s) <- merged;
                    Queue.add s work
                  end
                end)
            (succs pc)
        done;
        Array.iteri
          (fun pc instr ->
            match instr with
            | Isa.Enq (q, s) when q >= 0 && q < nq && states.(pc) <> [||] -> (
              let c = states.(pc).(s) in
              let want =
                match queues.(q).Isa.cls with
                | Isa.Qint -> Cint
                | Isa.Qfloat -> Cfloat
              in
              match (c, want) with
              | Cint, Cfloat | Cfloat, Cint ->
                add
                  {
                    v_check = Typing;
                    v_core = Some core;
                    v_queue = Some q;
                    v_pc = Some pc;
                    v_message =
                      Fmt.str
                        "enqueue of %s register r%d onto %s queue %d"
                        (cls_name c) s
                        (qclass_name queues.(q).Isa.cls)
                        q;
                  }
              | _ -> ())
            | Isa.Store (arr, _, s)
              when arr >= 0
                   && arr < Array.length program.Program.arrays
                   && Comm.is_comm_array_name
                        program.Program.arrays.(arr).Program.arr_name
                   && states.(pc) <> [||] -> (
              (* Shared-cache mode: a torn transfer (wrong value class
                 stored into a handshake slot) is the analogue of
                 enqueueing onto the wrong-class queue. *)
              let c = states.(pc).(s) in
              let want =
                cls_of_ty program.Program.arrays.(arr).Program.arr_ty
              in
              match (c, want) with
              | Cint, Cfloat | Cfloat, Cint ->
                add
                  {
                    v_check = Typing;
                    v_core = Some core;
                    v_queue = None;
                    v_pc = Some pc;
                    v_message =
                      Fmt.str
                        "torn transfer: store of %s register r%d into %s \
                         handshake array %s"
                        (cls_name c) s (cls_name want)
                        program.Program.arrays.(arr).Program.arr_name;
                  }
              | _ -> ())
            | _ -> ())
          code
      end)
    program.Program.cores

(* ------------------------------------------------------------------ *)
(* Endpoints.                                                          *)

let endpoints_check add (program : Program.t) =
  let queues = program.Program.queues in
  let nq = Array.length queues in
  Array.iteri
    (fun core (cp : Program.core_program) ->
      Array.iteri
        (fun pc instr ->
          let bad q msg =
            add
              {
                v_check = Endpoints;
                v_core = Some core;
                v_queue = Some q;
                v_pc = Some pc;
                v_message = msg;
              }
          in
          match instr with
          | Isa.Enq (q, _) ->
            if q < 0 || q >= nq then
              bad q (Fmt.str "enqueue on unknown queue %d" q)
            else if queues.(q).Isa.src <> core then
              bad q
                (Fmt.str
                   "enqueue on queue %d (%d->%d %s) from core %d, which is \
                    not its source"
                   q queues.(q).Isa.src queues.(q).Isa.dst
                   (qclass_name queues.(q).Isa.cls)
                   core)
          | Isa.Deq (_, q) ->
            if q < 0 || q >= nq then
              bad q (Fmt.str "dequeue on unknown queue %d" q)
            else if queues.(q).Isa.dst <> core then
              bad q
                (Fmt.str
                   "dequeue on queue %d (%d->%d %s) from core %d, which is \
                    not its destination"
                   q queues.(q).Isa.src queues.(q).Isa.dst
                   (qclass_name queues.(q).Isa.cls)
                   core)
          | _ -> ())
        cp.Program.code)
    program.Program.cores

(* ------------------------------------------------------------------ *)
(* Driver handshake protocol.                                          *)

(* Registers holding a compile-time constant: defined exactly once, by
   a [Li].  The token registers come from the constant pool, so this is
   precise where it matters. *)
let const_table (cp : Program.core_program) =
  let defs = Array.make (max 1 cp.Program.n_regs) 0 in
  let vals = Array.make (max 1 cp.Program.n_regs) None in
  Array.iter
    (fun instr ->
      (match Isa.dst instr with
      | Some d -> defs.(d) <- defs.(d) + 1
      | None -> ());
      match instr with
      | Isa.Li (d, v) -> vals.(d) <- Some v
      | _ -> ())
    cp.Program.code;
  fun r -> if defs.(r) = 1 then vals.(r) else None

let protocol_check add (program : Program.t) summaries =
  let queues = program.Program.queues in
  let nq = Array.length queues in
  Array.iteri
    (fun core (_, handshakes) ->
      List.iter
        (fun (q, tok_pc) ->
          if q >= 0 && q < nq && queues.(q).Isa.dst = core then begin
            let src = queues.(q).Isa.src in
            if src >= 0 && src < Array.length program.Program.cores then begin
              let cp = program.Program.cores.(src) in
              let const = const_table cp in
              let enq_const pc =
                match cp.Program.code.(pc) with
                | Isa.Enq (_, r) -> const r
                | _ -> None
              in
              let prod_items, _ = summaries.(src) in
              let prod = filter_ops ~queue:q ~enq:true prod_items in
              let bad pc msg =
                add
                  {
                    v_check = Protocol;
                    v_core = Some src;
                    v_queue = Some q;
                    v_pc = pc;
                    v_message = msg;
                  }
              in
              match prod with
              | [] ->
                bad (Some tok_pc)
                  (Fmt.str
                     "core %d drives its loop from queue %d but core %d \
                      never enqueues a control token on it"
                     core q src)
              | first :: _ -> (
                (match first with
                | P_op o -> (
                  match enq_const o.o_pc with
                  | Some (Types.VInt v) when v <> 0 -> ()
                  | Some v ->
                    bad (Some o.o_pc)
                      (Fmt.str
                         "first control token on queue %d is %a, expected a \
                          nonzero integer spawn token"
                         q Types.pp_value_human v)
                  | None ->
                    bad (Some o.o_pc)
                      (Fmt.str
                         "first control token on queue %d is not a constant"
                         q))
                | P_loop l ->
                  bad (Some l.l_head)
                    (Fmt.str
                       "queue %d feeds a driver loop but the producer's \
                        first enqueue sits inside a loop at pc %d"
                       q l.l_head));
                match List.rev prod with
                | P_op o :: _ -> (
                  match enq_const o.o_pc with
                  | Some (Types.VInt 0) -> ()
                  | Some v ->
                    bad (Some o.o_pc)
                      (Fmt.str
                         "last control token on queue %d is %a, expected the \
                          zero halt token"
                         q Types.pp_value_human v)
                  | None ->
                    bad (Some o.o_pc)
                      (Fmt.str
                         "last control token on queue %d is not a constant" q))
                | P_loop l :: _ ->
                  bad (Some l.l_head)
                    (Fmt.str
                       "queue %d feeds a driver loop but the producer's last \
                        enqueue sits inside a loop at pc %d"
                       q l.l_head)
                | [] -> ())
            end
          end)
        handshakes)
    summaries

(* ------------------------------------------------------------------ *)
(* Capacity-bounded deadlock freedom.                                  *)

(* Unroll every loop [u] times and list the queue ops in execution
   order.  [u >= queue_len + a few] iterations saturate the wait-for
   graph: program-order and capacity edges repeat with period one
   iteration, so any cycle appears within the first [queue_len + 2]
   unrollings. *)
let expand u items =
  let rec go acc items =
    List.fold_left
      (fun acc it ->
        match it with
        | P_op o -> o :: acc
        | P_loop l ->
          let rec rep acc k = if k = 0 then acc else rep (go acc l.l_items) (k - 1) in
          rep acc u)
      acc items
  in
  List.rev (go [] items)

(* Find a cycle in the waits-on digraph; returns it oldest-first, each
   node waiting on the next, the last waiting on the first. *)
let find_cycle n_nodes prereqs =
  let color = Array.make n_nodes 0 in
  let parent = Array.make n_nodes (-1) in
  let cycle = ref None in
  let rec dfs u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if !cycle = None then
          if color.(v) = 0 then begin
            parent.(v) <- u;
            dfs v
          end
          else if color.(v) = 1 then begin
            let rec collect acc x =
              if x = v then v :: acc else collect (x :: acc) parent.(x)
            in
            cycle := Some (collect [] u)
          end)
      prereqs.(u);
    color.(u) <- 2
  in
  let i = ref 0 in
  while !cycle = None && !i < n_nodes do
    if color.(!i) = 0 then dfs !i;
    incr i
  done;
  !cycle

let deadlock_check add ~queue_len (program : Program.t) summaries =
  let nq = Array.length program.Program.queues in
  let u = queue_len + 4 in
  (* Per-core instance streams, globally indexed. *)
  let instances = ref [] in
  let n_nodes = ref 0 in
  let per_core =
    Array.mapi
      (fun core (items, _) ->
        let ops = expand u items in
        let ids =
          List.map
            (fun (o : qop) ->
              let id = !n_nodes in
              incr n_nodes;
              instances := (id, core, o) :: !instances;
              id)
            ops
        in
        (ids, ops))
      summaries
  in
  let n = !n_nodes in
  let instance = Array.make (max 1 n) (0, { o_pc = 0; o_queue = 0; o_enq = true; o_path = [] }) in
  List.iter (fun (id, core, o) -> instance.(id) <- (core, o)) !instances;
  let prereqs = Array.make (max 1 n) [] in
  let edge a b = prereqs.(a) <- b :: prereqs.(a) in
  (* Program order: a queue op waits on the previous queue op of its
     core (in-order, single-issue cores block on queue instructions). *)
  Array.iter
    (fun (ids, _) ->
      let rec chain = function
        | a :: (b :: _ as rest) ->
          edge b a;
          chain rest
        | _ -> []
      in
      ignore (chain ids))
    per_core;
  (* Comm and capacity edges, per queue. *)
  for q = 0 to nq - 1 do
    let enqs = ref [] and deqs = ref [] in
    Array.iter
      (fun (ids, ops) ->
        List.iter2
          (fun id (o : qop) ->
            if o.o_queue = q then
              if o.o_enq then enqs := id :: !enqs else deqs := id :: !deqs)
          ids ops)
      per_core;
    let enqs = Array.of_list (List.rev !enqs) in
    let deqs = Array.of_list (List.rev !deqs) in
    (* The k-th dequeue waits on the k-th enqueue (FIFO). *)
    for k = 0 to min (Array.length enqs) (Array.length deqs) - 1 do
      edge deqs.(k) enqs.(k)
    done;
    (* The k-th enqueue waits on dequeue k - capacity freeing a slot. *)
    for k = queue_len to Array.length enqs - 1 do
      if k - queue_len < Array.length deqs then
        edge enqs.(k) deqs.(k - queue_len)
    done
  done;
  match find_cycle n prereqs with
  | None -> ()
  | Some cyc ->
    (* Compress per-iteration repeats: unique (core, pc) in order. *)
    let seen = Hashtbl.create 8 in
    let uniq =
      List.filter
        (fun id ->
          let core, o = instance.(id) in
          if Hashtbl.mem seen (core, o.o_pc) then false
          else begin
            Hashtbl.add seen (core, o.o_pc) ();
            true
          end)
        cyc
    in
    let describe id =
      let core, o = instance.(id) in
      Fmt.str "core %d %s q%d (pc %d)" core
        (if o.o_enq then "enq" else "deq")
        o.o_queue o.o_pc
    in
    let shown = List.filteri (fun i _ -> i < 8) uniq in
    let core0, op0 =
      match uniq with id :: _ -> instance.(id) | [] -> instance.(List.hd cyc)
    in
    add
      {
        v_check = Deadlock;
        v_core = Some core0;
        v_queue = Some op0.o_queue;
        v_pc = Some op0.o_pc;
        v_message =
          Fmt.str "static wait-for cycle: %s -> %s%s"
            (String.concat " -> " (List.map describe shown))
            (describe (List.hd uniq))
            (if List.length uniq > 8 then
               Fmt.str " (%d ops in cycle)" (List.length uniq)
             else "");
      }

(* ------------------------------------------------------------------ *)
(* Plan conformance: FIFO consistency of the lowered kernel loop.      *)

(* In-loop ops of a summary, flattened in order (paths kept). *)
let in_loop_ops items =
  let rec under items =
    List.concat_map
      (function P_op o -> [ o ] | P_loop l -> under l.l_items)
      items
  in
  List.concat_map
    (function P_op _ -> [] | P_loop l -> under l.l_items)
    items

(* A transfer's guard path: the branch directions of its predicates. *)
let wants (tr : Comm.transfer) =
  List.map (fun (p : Region.pred) -> p.Region.want) tr.Comm.preds

(* Check a core's communication ops [actual], in program order, against
   the [expected] (sort key, signature) pairs from {!Comm.placement}.
   The walk goes in key groups: within a group (ops sharing one key) any
   order is a valid sort, so a group compares as a sorted multiset of
   signatures.  The first deviating group is reported to [mismatch]
   ([here] is its actual ops) and ends the walk. *)
let check_placement ~count_mismatch ~mismatch ~sig_of expected actual =
  let expected = List.sort (fun (k1, _) (k2, _) -> compare k1 k2) expected in
  let n_exp = List.length expected and n_act = List.length actual in
  if n_exp <> n_act then count_mismatch n_act n_exp
  else
    let rec walk expected actual =
      match expected with
      | [] -> ()
      | (key, _) :: _ ->
        let group, expected' =
          List.partition (fun (k, _) -> k = key) expected
        in
        let rec split n acc l =
          if n = 0 then (List.rev acc, l)
          else
            match l with
            | x :: rest -> split (n - 1) (x :: acc) rest
            | [] -> (List.rev acc, [])
        in
        let here, actual' = split (List.length group) [] actual in
        let exp_sig = List.sort compare (List.map snd group) in
        let act_sig = List.sort compare (List.map sig_of here) in
        if exp_sig <> act_sig then mismatch here exp_sig act_sig
        else walk expected' actual'
    in
    walk expected actual

let conformance_check add (program : Program.t) (plan : Comm.t) summaries =
  let queues = program.Program.queues in
  let qid_of =
    let tbl = Hashtbl.create 16 in
    Array.iteri
      (fun i (s : Isa.queue_spec) ->
        Hashtbl.replace tbl (s.Isa.src, s.Isa.dst, s.Isa.cls) i)
      queues;
    fun (tr : Comm.transfer) ->
      Hashtbl.find_opt tbl
        (tr.Comm.src_core, tr.Comm.dst_core, qclass_of_ty tr.Comm.ty)
  in
  Array.iteri
    (fun core (items, _) ->
      let fail pc queue msg =
        add
          {
            v_check = Fifo;
            v_core = Some core;
            v_queue = queue;
            v_pc = pc;
            v_message = msg;
          }
      in
      let missing = ref false in
      let event key enq tr =
        match qid_of tr with
        | Some q -> Some (key, (enq, q, wants tr))
        | None ->
          if not !missing then
            fail None None
              (Fmt.str
                 "plan transfer of %s (%d->%d %s) has no queue in the \
                  lowered program"
                 tr.Comm.var tr.Comm.src_core tr.Comm.dst_core
                 (qclass_name (qclass_of_ty tr.Comm.ty)));
          missing := true;
          None
      in
      (* Expected order: Lower's placement keys, from the one function
         both use. *)
      let events =
        List.filter_map
          (fun (key, enq, tr) -> event key enq tr)
          (Comm.placement plan ~core)
      in
      if not !missing then
        let op_str (e, q, _) =
          Fmt.str "%s q%d" (if e then "enq" else "deq") q
        in
        check_placement events (in_loop_ops items)
          ~sig_of:(fun (o : qop) -> (o.o_enq, o.o_queue, o.o_path))
          ~count_mismatch:(fun n_act n_exp ->
            fail (first_pc items) None
              (Fmt.str
                 "kernel loop carries %d communication op(s) but the comm \
                  plan schedules %d"
                 n_act n_exp))
          ~mismatch:(fun here exp_sig act_sig ->
            fail
              (match here with o :: _ -> Some o.o_pc | [] -> None)
              (match exp_sig with (_, q, _) :: _ -> Some q | [] -> None)
              (Fmt.str
                 "in-loop comm order deviates from the plan: expected %s, \
                  found %s"
                 (String.concat "+" (List.map op_str exp_sig))
                 (String.concat "+" (List.map op_str act_sig)))))
    summaries

(* ------------------------------------------------------------------ *)
(* Shared-cache handshake conformance.                                 *)

(* One recognized valid-flag handshake: a spin loop on the flag array
   followed by the data access and the flag release. *)
type sc_op = {
  sc_pc : int;  (** pc of the spin-loop head *)
  sc_send : bool;
  sc_flag : int;  (** flag slot index *)
  sc_data : int;  (** data slot index *)
  sc_cls : cls;  (** class of the data array accessed *)
  sc_path : bool list;
}

let shared_check add (program : Program.t) (plan : Comm.t) parsed =
  let arrays = program.Program.arrays in
  let arr_named name =
    let r = ref None in
    Array.iteri
      (fun i (l : Program.array_layout) ->
        if String.equal l.Program.arr_name name then r := Some i)
      arrays;
    !r
  in
  let flag_arr = arr_named Comm.flag_array_name in
  let is_comm_arr a =
    a >= 0
    && a < Array.length arrays
    && Comm.is_comm_array_name arrays.(a).Program.arr_name
  in
  let slot_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ((tr : Comm.transfer), (s : Comm.slot)) ->
        Hashtbl.replace tbl
          (tr.Comm.src_core, tr.Comm.dst_core, tr.Comm.ty, tr.Comm.seq)
          s)
      (Comm.shared_slots plan);
    fun (tr : Comm.transfer) ->
      Hashtbl.find
        tbl
        (tr.Comm.src_core, tr.Comm.dst_core, tr.Comm.ty, tr.Comm.seq)
  in
  let sig_str (send, f, d, c, _path) =
    Fmt.str "%s flag%d/%s%d"
      (if send then "send" else "recv")
      f (cls_name c) d
  in
  Array.iteri
    (fun core (nodes, (items, _)) ->
      let cp = program.Program.cores.(core) in
      let code = cp.Program.code in
      let const = const_table cp in
      let fail pc msg =
        add
          {
            v_check = Handshake;
            v_core = Some core;
            v_queue = None;
            v_pc = pc;
            v_message = msg;
          }
      in
      (* In shared-cache mode the kernel loop is queue-free: the only
         queue instructions are the driver protocol outside the loop. *)
      (match in_loop_ops items with
      | [] -> ()
      | o :: _ ->
        fail (Some o.o_pc)
          "queue instruction inside the kernel loop in shared-cache mode");
      (* Collect handshakes from the node tree; any other access to a
         handshake array (a reordered flag write, a stray load) is
         malformed. *)
      let ops = ref [] in
      let const_int pc r what =
        match const r with
        | Some (Types.VInt v) -> Some v
        | Some _ | None ->
          fail (Some pc) (Fmt.str "%s is not an integer constant" what);
          None
      in
      let spin_of nd =
        match (nd, flag_arr) with
        | Loop { head; latch; body = [ Op h ] }, Some fa when h = head -> (
          match (code.(head), code.(latch)) with
          | Isa.Load (rt, a, rf), Isa.Bnz (rb, _) when a = fa && rb = rt ->
            (* spins while the flag is set: producer side *)
            Some (true, head, rf)
          | Isa.Load (rt, a, rf), Isa.Bz (rb, _) when a = fa && rb = rt ->
            (* spins while the flag is clear: consumer side *)
            Some (false, head, rf)
          | _ -> None)
        | _ -> None
      in
      let rec go path nodes =
        match nodes with
        | [] -> ()
        | nd :: rest -> (
          match spin_of nd with
          | Some (send, head, rf) -> (
            let record flag_slot data_arr data_slot =
              ops :=
                {
                  sc_pc = head;
                  sc_send = send;
                  sc_flag = flag_slot;
                  sc_data = data_slot;
                  sc_cls = cls_of_ty arrays.(data_arr).Program.arr_ty;
                  sc_path = path;
                }
                :: !ops
            in
            let check_body p1 p2 da ri rf2 rv rest' =
              (match
                 ( const_int head rf "spin flag index",
                   const_int p2 rf2 "flag release index",
                   const_int p1 ri "data slot index",
                   const_int p2 rv "flag release value" )
               with
              | Some f1, Some f2, Some d, Some v ->
                if f1 <> f2 then
                  fail (Some p2)
                    (Fmt.str
                       "handshake at pc %d spins on flag slot %d but writes \
                        flag slot %d"
                       head f1 f2);
                if send && v = 0 then
                  fail (Some p2)
                    (Fmt.str
                       "producer handshake at pc %d publishes a zero flag \
                        token"
                       head);
                if (not send) && v <> 0 then
                  fail (Some p2)
                    (Fmt.str
                       "consumer handshake at pc %d releases its slot with a \
                        nonzero flag token"
                       head);
                record f1 da d
              | _ -> ());
              go path rest'
            in
            match rest with
            | Op p1 :: Op p2 :: rest' -> (
              match (send, code.(p1), code.(p2)) with
              | true, Isa.Store (da, ri, _), Isa.Store (fa2, rf2, rv)
                when is_comm_arr da && Some fa2 = flag_arr ->
                check_body p1 p2 da ri rf2 rv rest'
              | false, Isa.Load (_, da, ri), Isa.Store (fa2, rf2, rv)
                when is_comm_arr da && Some fa2 = flag_arr ->
                check_body p1 p2 da ri rf2 rv rest'
              | _ ->
                fail (Some head)
                  (Fmt.str
                     "%s spin at pc %d is not followed by the data access \
                      and the flag write"
                     (if send then "producer" else "consumer")
                     head);
                go path rest)
            | _ ->
              fail (Some head)
                (Fmt.str "spin loop at pc %d has no handshake body" head);
              go path rest)
          | None -> (
            match nd with
            | Op pc ->
              (match code.(pc) with
              | (Isa.Load (_, a, _) | Isa.Store (a, _, _)) when is_comm_arr a
                ->
                fail (Some pc)
                  (Fmt.str
                     "access to handshake array %s outside a recognized \
                      handshake"
                     arrays.(a).Program.arr_name)
              | _ -> ());
              go path rest
            | Cond { taken_when; body; _ } ->
              go (path @ [ taken_when ]) body;
              go path rest
            | Loop { body; _ } ->
              go [] body;
              go path rest
            | Break _ -> go path rest))
      in
      go [] nodes;
      (* Expected handshakes: the plan's transfers under the sort keys
         the code generator places them by. *)
      let sig_of send tr =
        let sl = slot_of tr in
        ( send,
          sl.Comm.sl_flag,
          sl.Comm.sl_data,
          cls_of_ty tr.Comm.ty,
          wants tr )
      in
      check_placement
        (List.map
           (fun (key, send, tr) -> (key, sig_of send tr))
           (Comm.placement plan ~core))
        (List.rev !ops)
        ~sig_of:(fun o -> (o.sc_send, o.sc_flag, o.sc_data, o.sc_cls, o.sc_path))
        ~count_mismatch:(fun n_act n_exp ->
          fail None
            (Fmt.str
               "core carries %d handshake(s) but the comm plan schedules %d"
               n_act n_exp))
        ~mismatch:(fun here exp_sig act_sig ->
          fail
            (match here with o :: _ -> Some o.sc_pc | [] -> None)
            (Fmt.str
               "handshake order deviates from the plan: expected %s, found %s"
               (String.concat "+" (List.map sig_str exp_sig))
               (String.concat "+" (List.map sig_str act_sig)))))
    parsed

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let run ?plan ?(mode = Comm.Queues) ~queue_len (program : Program.t) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let ops_checked =
    Array.fold_left
      (fun acc (cp : Program.core_program) ->
        Array.fold_left
          (fun acc i ->
            match i with Isa.Enq _ | Isa.Deq _ -> acc + 1 | _ -> acc)
          acc cp.Program.code)
      0 program.Program.cores
  in
  endpoints_check add program;
  typing_check add program;
  let parsed =
    Array.mapi
      (fun core cp ->
        match parse_core cp with
        | nodes -> Some (nodes, summarize cp.Program.code nodes)
        | exception Unstructured (pc, msg) ->
          add
            {
              v_check = Structure;
              v_core = Some core;
              v_queue = None;
              v_pc = Some pc;
              v_message = msg;
            };
          None)
      program.Program.cores
  in
  (if Array.for_all Option.is_some parsed then begin
     let both = Array.map Option.get parsed in
     let summaries = Array.map snd both in
     (* Balance per queue. *)
     Array.iteri
       (fun q (spec : Isa.queue_spec) ->
         let n_cores = Array.length program.Program.cores in
         if
           spec.Isa.src >= 0 && spec.Isa.src < n_cores && spec.Isa.dst >= 0
           && spec.Isa.dst < n_cores
         then begin
           let prod_items, _ = summaries.(spec.Isa.src) in
           let cons_items, _ = summaries.(spec.Isa.dst) in
           let prod = filter_ops ~queue:q ~enq:true prod_items in
           let cons = filter_ops ~queue:q ~enq:false cons_items in
           match align_balance prod cons with
           | None -> ()
           | Some (pc, msg) ->
             add
               {
                 v_check = Balance;
                 v_core = None;
                 v_queue = Some q;
                 v_pc = pc;
                 v_message =
                   Fmt.str "queue %d (%d->%d %s): %s" q spec.Isa.src
                     spec.Isa.dst
                     (qclass_name spec.Isa.cls)
                     msg;
               }
         end
         else
           add
             {
               v_check = Endpoints;
               v_core = None;
               v_queue = Some q;
               v_pc = None;
               v_message =
                 Fmt.str "queue %d endpoints (%d->%d) are not cores" q
                   spec.Isa.src spec.Isa.dst;
             })
       program.Program.queues;
     protocol_check add program summaries;
     deadlock_check add ~queue_len program summaries;
     match plan with
     | Some p -> (
       match mode with
       | Comm.Queues -> conformance_check add program p summaries
       | Comm.Shared_cache -> shared_check add program p both)
     | None -> ()
   end);
  {
    violations = List.rev !violations;
    queues_checked = Array.length program.Program.queues;
    ops_checked;
  }

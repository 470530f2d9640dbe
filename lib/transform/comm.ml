(** Communication insertion (Section III-D).

    For every data or control dependence edge whose endpoints were
    partitioned onto different cores, a value transfer is created: one
    enqueue after the producing fiber, one dequeue before the first
    consuming fiber on each consuming core.

    Anchors are positions in the single global fiber schedule, which keeps
    the enqueue and dequeue sequences of every queue mutually consistent.
    The code generator finalizes dequeue placement per consuming core: it
    orders all dequeues by enqueue anchor and hoists each so that none is
    delayed past another (suffix-min of consumer anchors), which preserves
    per-queue FIFO order and guarantees a transferred predicate value is
    dequeued before any dequeue or statement guarded by it. *)

open Finepar_ir
open Finepar_analysis

(** How cross-core transfers are realized by the code generator.
    [Queues] is the paper's dedicated hardware queues; [Shared_cache]
    models Desai's cache-coupled threads: each transfer becomes a
    valid-flag handshake over synthetic arrays that live in ordinary
    memory, so producer and consumer communicate through the existing
    private-L1 / shared-L2 hierarchy (spin until the flag clears, store
    the value, set the flag; spin until the flag sets, load the value,
    clear the flag). *)
type mode = Queues | Shared_cache

let mode_name = function Queues -> "queues" | Shared_cache -> "shared_cache"

let mode_of_name = function
  | "queues" -> Some Queues
  | "shared_cache" -> Some Shared_cache
  | _ -> None

(* Reserved names of the synthetic handshake arrays appended to the
   memory layout in [Shared_cache] mode; the verifier recognizes
   handshakes by these names. *)
let flag_array_name = "__comm_flag"
let i64_array_name = "__comm_i64"
let f64_array_name = "__comm_f64"

let is_comm_array_name n =
  String.length n >= 7 && String.equal (String.sub n 0 7) "__comm_"

type transfer = {
  var : string;
  ty : Types.ty;
  src_core : int;
  dst_core : int;
  preds : Region.pred list;  (** the producing statement's predicate context *)
  enq_anchor : int;  (** global-order position of the producing fiber *)
  deq_anchor : int;  (** normalized position before the first consumer *)
  seq : int;  (** tie-break: index in the queue's enqueue order *)
}

type t = {
  transfers : transfer list;
  com_ops : int;  (** enqueues + dequeues inserted — Table III "Com Ops" *)
  pairs_used : (int * int) list;  (** distinct (src, dst) core pairs *)
  warnings : string list;
}

(** Handshake slots of one transfer in [Shared_cache] mode. *)
type slot = {
  sl_flag : int;  (** index into the flag array; unique per transfer *)
  sl_data : int;
      (** index into the data array of the transfer's value class;
          unique per transfer within its class *)
}

(** Canonical slot assignment: flag slots number the transfers in the
    plan's canonical order ([transfers] is sorted by (enq_anchor, seq,
    var)), data slots count per value class in the same order.  The
    code generator and the static verifier both derive slots from this
    single function, which is what makes flag-location agreement
    checkable. *)
let shared_slots (t : t) : (transfer * slot) list =
  let flag = ref 0 and n_i64 = ref 0 and n_f64 = ref 0 in
  List.map
    (fun tr ->
      let data =
        match tr.ty with
        | Types.I64 ->
          let d = !n_i64 in
          incr n_i64;
          d
        | Types.F64 ->
          let d = !n_f64 in
          incr n_f64;
          d
      in
      let s = { sl_flag = !flag; sl_data = data } in
      incr flag;
      (tr, s))
    t.transfers

(** In-loop placement of [core]'s communication.  Enqueues sit right
    after their producing fiber: key [(enq_anchor, 2, seq)].  Dequeues
    are ordered by the producer's global position, then hoisted with a
    suffix-min so none is delayed past a later-enqueued one: key
    [(hoisted deq_anchor, 0, rank)].  The code generator sorts these
    keys together with its fibers' [(position, 1, id)]; the static
    verifier sorts them alone to get the order it expects. *)
let placement (t : t) ~core =
  let enqs =
    List.filter_map
      (fun tr ->
        if tr.src_core = core then Some ((tr.enq_anchor, 2, tr.seq), true, tr)
        else None)
      t.transfers
  in
  let deqs =
    List.filter (fun tr -> tr.dst_core = core) t.transfers
    |> List.sort (fun a b ->
           compare
             (a.enq_anchor, a.src_core, a.ty, a.seq)
             (b.enq_anchor, b.src_core, b.ty, b.seq))
    |> Array.of_list
  in
  let anchors = Array.map (fun tr -> tr.deq_anchor) deqs in
  for i = Array.length anchors - 2 downto 0 do
    if anchors.(i + 1) < anchors.(i) then anchors.(i) <- anchors.(i + 1)
  done;
  enqs
  @ List.init (Array.length deqs) (fun i ->
        ((anchors.(i), 0, i), false, deqs.(i)))

(** (flag slots, i64 data slots, f64 data slots) needed by the plan. *)
let shared_slot_counts (t : t) =
  List.fold_left
    (fun (f, i, fl) (tr : transfer) ->
      match tr.ty with
      | Types.I64 -> (f + 1, i + 1, fl)
      | Types.F64 -> (f + 1, i, fl + 1))
    (0, 0, 0) t.transfers

let compute ~(region : Region.t) ~(deps : Deps.t) ~(cluster_of : int array)
    ~(order : int list) ~queue_len =
  let pos = Array.make (Array.length cluster_of) 0 in
  List.iteri (fun i f -> pos.(f) <- i) order;
  let stmts = Array.of_list region.Region.stmts in
  let tenv = Cost.region_tenv region in
  (* Group consumers per (producing stmt, var, destination core). *)
  let consumers : (int * string * int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Deps.edge) ->
      match e.Deps.kind with
      | Deps.Data v | Deps.Control v ->
        let sc = cluster_of.(e.Deps.src) and dc = cluster_of.(e.Deps.dst) in
        if sc <> dc then begin
          let key = (e.Deps.src, v, dc) in
          let anchor = pos.(e.Deps.dst) in
          match Hashtbl.find_opt consumers key with
          | Some a when a <= anchor -> ()
          | _ -> Hashtbl.replace consumers key anchor
        end
      | Deps.Anti _ | Deps.Mem _ -> ())
    deps.Deps.edges;
  let raw =
    Hashtbl.fold
      (fun (src_stmt, var, dst_core) deq_anchor acc ->
        let s = stmts.(src_stmt) in
        {
          var;
          ty = Expr.infer tenv (Expr.Var var);
          src_core = cluster_of.(src_stmt);
          dst_core;
          preds = s.Region.preds;
          enq_anchor = pos.(src_stmt);
          deq_anchor;
          seq = 0;
        }
        :: acc)
      consumers []
  in
  (* Per queue (src, dst, value class): order by enqueue anchor, then make
     dequeue anchors non-increasing from the back (suffix min), so the
     consumer dequeues in enqueue order. *)
  let by_queue = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      let key = (tr.src_core, tr.dst_core, tr.ty) in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_queue key) in
      Hashtbl.replace by_queue key (tr :: cur))
    raw;
  let transfers = ref [] and warnings = ref [] in
  Hashtbl.iter
    (fun (src, dst, _ty) trs ->
      let sorted =
        List.sort
          (fun a b ->
            match compare a.enq_anchor b.enq_anchor with
            | 0 -> compare a.var b.var
            | c -> c)
          trs
      in
      let arr = Array.of_list sorted in
      let n = Array.length arr in
      if n > queue_len / 2 then
        warnings :=
          Fmt.str
            "queue %d->%d carries %d values per iteration (queue length %d): \
             risk of capacity stalls"
            src dst n queue_len
          :: !warnings;
      (* The final dequeue placement (per consuming core, FIFO-consistent
         suffix-min over enqueue order) is done by the code generator; here
         we only fix the per-queue sequence numbers. *)
      Array.iteri (fun i tr -> transfers := { tr with seq = i } :: !transfers) arr)
    by_queue;
  let transfers =
    List.sort
      (fun a b -> compare (a.enq_anchor, a.seq, a.var) (b.enq_anchor, b.seq, b.var))
      !transfers
  in
  let pairs = Hashtbl.create 8 in
  List.iter (fun tr -> Hashtbl.replace pairs (tr.src_core, tr.dst_core) ()) transfers;
  {
    transfers;
    com_ops = 2 * List.length transfers;
    pairs_used = Hashtbl.fold (fun p () acc -> p :: acc) pairs [];
    warnings = !warnings;
  }

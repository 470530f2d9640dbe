(** Self-time / total-time profiles over {!Tracer} spans.

    Spans are aggregated by {e path} — the chain of span names from a
    domain root down to the span — so two "verify" passes under two
    different "compile" spans fold into one node, while a "verify" span
    elsewhere in the tree stays separate.  Each node carries the number
    of spans folded into it, their summed wall-clock total, and the
    {e self} time: total minus the children's totals, clamped at zero
    (children are temporally nested inside their parent, so the clamp
    only absorbs clock jitter).

    By construction, for every node the sum of its children's totals —
    and therefore of their self times — never exceeds the node's own
    total (the invariant {!well_formed} checks and a unit test
    asserts). *)

type node = {
  name : string;
  count : int;  (** spans folded into this node *)
  total : float;  (** summed wall-clock seconds *)
  self : float;  (** total minus children's totals, clamped at 0 *)
  children : node list;  (** sorted by total, descending *)
}

(* Mutable assembly node, keyed by child name. *)
type builder = {
  mutable b_count : int;
  mutable b_total : float;
  b_children : (string, builder) Hashtbl.t;
}

let new_builder () =
  { b_count = 0; b_total = 0.; b_children = Hashtbl.create 4 }

let child_of b name =
  match Hashtbl.find_opt b.b_children name with
  | Some c -> c
  | None ->
    let c = new_builder () in
    Hashtbl.add b.b_children name c;
    c

let rec freeze name b =
  let children =
    Hashtbl.fold (fun n c acc -> freeze n c :: acc) b.b_children []
    |> List.sort (fun a b ->
           match Float.compare b.total a.total with
           | 0 -> String.compare a.name b.name
           | c -> c)
  in
  let child_total = List.fold_left (fun acc c -> acc +. c.total) 0. children in
  {
    name;
    count = b.b_count;
    total = b.b_total;
    self = Float.max 0. (b.b_total -. child_total);
    children;
  }

(** Build the aggregated profile forest from a span list.  Roots are
    spans with no parent (each domain's outermost spans). *)
let of_spans (spans : Tracer.span list) =
  let by_id = Hashtbl.create (List.length spans) in
  List.iter (fun (s : Tracer.span) -> Hashtbl.replace by_id s.Tracer.id s) spans;
  (* Path from root to span, by walking parent links. *)
  let rec path (s : Tracer.span) acc =
    let acc = s.Tracer.name :: acc in
    match Hashtbl.find_opt by_id s.Tracer.parent with
    | Some p -> path p acc
    | None -> acc
  in
  let root = new_builder () in
  List.iter
    (fun (s : Tracer.span) ->
      let b = List.fold_left child_of root (path s []) in
      b.b_count <- b.b_count + 1;
      b.b_total <- b.b_total +. Tracer.duration s)
    spans;
  (freeze "root" root).children

let total_seconds roots = List.fold_left (fun acc n -> acc +. n.total) 0. roots

(** Every node's children must not out-total it (allowing 1 ns of clock
    jitter per node), and self must be non-negative. *)
let well_formed roots =
  let eps = 1e-9 in
  let rec ok n =
    let child_total = List.fold_left (fun acc c -> acc +. c.total) 0. n.children in
    let child_self = List.fold_left (fun acc c -> acc +. c.self) 0. n.children in
    n.self >= 0.
    && child_total <= n.total +. eps
    && child_self <= n.total +. eps
    && List.for_all ok n.children
  in
  List.for_all ok roots

(** Flattened ("a/b/c" path, count, total, self) rows sorted by self
    time, descending — the hot list. *)
let hot_list roots =
  let rows = ref [] in
  let rec walk prefix n =
    let p = if prefix = "" then n.name else prefix ^ "/" ^ n.name in
    rows := (p, n.count, n.total, n.self) :: !rows;
    List.iter (walk p) n.children
  in
  List.iter (walk "") roots;
  List.sort
    (fun (pa, _, _, sa) (pb, _, _, sb) ->
      match Float.compare sb sa with 0 -> String.compare pa pb | c -> c)
    !rows

let rec node_to_json n =
  Json.Obj
    [
      ("name", Json.String n.name);
      ("count", Json.Int n.count);
      ("total_seconds", Json.Float n.total);
      ("self_seconds", Json.Float n.self);
      ("children", Json.List (List.map node_to_json n.children));
    ]

let to_json roots =
  Json.Obj
    [
      ("total_seconds", Json.Float (total_seconds roots));
      ("tree", Json.List (List.map node_to_json roots));
      ( "hot",
        Json.List
          (List.map
             (fun (path, count, total, self) ->
               Json.Obj
                 [
                   ("path", Json.String path);
                   ("count", Json.Int count);
                   ("total_seconds", Json.Float total);
                   ("self_seconds", Json.Float self);
                 ])
             (hot_list roots)) );
    ]

let pp ppf roots =
  Format.fprintf ppf "%10s %10s %7s  %s@." "total(ms)" "self(ms)" "count"
    "span";
  let rec walk depth n =
    Format.fprintf ppf "%10.3f %10.3f %7d  %s%s@." (n.total *. 1e3)
      (n.self *. 1e3) n.count
      (String.make (2 * depth) ' ')
      n.name;
    List.iter (walk (depth + 1)) n.children
  in
  List.iter (walk 0) roots;
  let rows = hot_list roots in
  if rows <> [] then begin
    Format.fprintf ppf "@.hottest by self time:@.";
    List.iteri
      (fun i (path, count, _, self) ->
        if i < 10 then
          Format.fprintf ppf "%10.3f %7d  %s@." (self *. 1e3) count path)
      rows
  end

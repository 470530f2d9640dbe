(** The code graph of Section III-B: one node per fiber, edges for data and
    control dependences between the code sections the fibers represent. *)

open Finepar_ir
open Finepar_analysis

type node = {
  fid : int;  (** fiber id = statement id in the fiber-split region *)
  stmt : Region.sstmt;
  ops : int;  (** compute operators in the fiber *)
  est : int;  (** static cycle estimate (latencies + profiled memory) *)
  line : int;  (** original source line, for the proximity heuristic *)
}

type t = {
  nodes : node array;
  deps : Deps.t;
  out_edges : Deps.edge list array;
  in_edges : Deps.edge list array;
}

let build ~(profile : Profile.t) (r : Region.t) (deps : Deps.t) =
  let tenv = Cost.region_tenv r in
  let nodes =
    Array.of_list
      (List.map
         (fun (s : Region.sstmt) ->
           {
             fid = s.Region.id;
             stmt = s;
             ops =
               Expr.op_count s.Region.rhs
               + (match s.Region.lhs with
                 | Region.Lstore (_, i) -> Expr.op_count i
                 | Region.Lscalar _ -> 0);
             est = Cost.sstmt_cycles ~tenv ~profile s;
             line = s.Region.line;
           })
         r.Region.stmts)
  in
  let n = Array.length nodes in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  List.iter
    (fun (e : Deps.edge) ->
      out_edges.(e.Deps.src) <- e :: out_edges.(e.Deps.src);
      in_edges.(e.Deps.dst) <- e :: in_edges.(e.Deps.dst))
    (Deps.sorted_edges deps);
  { nodes; deps; out_edges; in_edges }

let n_nodes t = Array.length t.nodes

let pp ppf t =
  Fmt.pf ppf "@[<v>code graph: %d nodes@,%a@]" (n_nodes t)
    Fmt.(
      list ~sep:(any "@,") (fun ppf n ->
          Fmt.pf ppf "f%d (ops=%d est=%d line=%d): %a" n.fid n.ops n.est
            n.line Region.pp_sstmt n.stmt))
    (Array.to_list t.nodes)

(** Graph transformation: merge fibers until one node remains per hardware
    core (Section III-B).

    Three variants are implemented, all from the paper:

    - [`Greedy]: merge the single highest-affinity pair at each step and
      recompute affinities (the baseline algorithm);
    - [`Multi_pair]: merge several disjoint high-affinity pairs per step
      ("allows faster compilation ... useful when there are a large number
      of fibers");
    - the *throughput heuristic* (optional, [throughput:true]): after each
      step, find cycles between current nodes and merge every cycle into a
      single node, so the final partitions have only unidirectional
      dependences (the paper measured an 11% average slowdown from this —
      we reproduce that ablation).

    Must-merge constraints from {!Finepar_analysis.Deps} are applied before
    any heuristic merging.

    Cost: an [n x n] matrix holds the dependence-edge count between every
    two live clusters, and a merge folds the absorbed cluster's row into
    the kept one in O(n), so affinities are recomputed without re-reading
    the edge list.  A step over [r] live clusters is one O(r^2) scan of
    their pairs ([`Multi_pair] also sorts the pairs of the class it
    picks from); a greedy merge from [n] fibers to [cores] is O(n^3) in
    all.  The throughput heuristic and the queue limit still re-read the
    edge list after each of their merges. *)

open Finepar_analysis

type algorithm = [ `Greedy | `Multi_pair ]

type result = {
  cluster_of : int array;  (** fiber id -> partition id, compacted 0..k-1 *)
  n_clusters : int;
  merge_steps : int;
}

(* Union-find over fiber ids. *)
let find parent i =
  let rec go i = if parent.(i) = i then i else go parent.(i) in
  let r = go i in
  let rec compress i =
    if parent.(i) <> r then begin
      let next = parent.(i) in
      parent.(i) <- r;
      compress next
    end
  in
  compress i;
  r

let run ?(algorithm = `Greedy) ?(throughput = false) ?max_queue_pairs
    ?(weights = Affinity.default) ~cores (g : Code_graph.t) =
  let n = Code_graph.n_nodes g in
  let parent = Array.init n Fun.id in
  let steps = ref 0 and live = ref n in
  let info =
    Array.map
      (fun (nd : Code_graph.node) ->
        {
          Affinity.id = nd.Code_graph.fid;
          est = nd.Code_graph.est;
          ops = nd.Code_graph.ops;
          line_lo = nd.Code_graph.line;
          line_hi = nd.Code_graph.line;
        })
      g.Code_graph.nodes
  in
  (* [edges.(a * n + b)]: data+control dependence edges (either direction)
     between clusters [a] and [b] -- the paper's "number of dependence
     edges between them".  Kept current for pairs of roots only. *)
  let edges = Array.make (n * n) 0 in
  List.iter
    (fun (e : Deps.edge) ->
      match e.Deps.kind with
      | (Deps.Data _ | Deps.Control _) when e.Deps.src <> e.Deps.dst ->
        let a = e.Deps.src and b = e.Deps.dst in
        edges.((a * n) + b) <- edges.((a * n) + b) + 1;
        edges.((b * n) + a) <- edges.((b * n) + a) + 1
      | _ -> ())
    g.Code_graph.deps.Deps.edges;
  let union a b =
    let ra = find parent a and rb = find parent b in
    if ra = rb then ()
    else begin
      incr steps;
      decr live;
      let keep, gone = if ra < rb then (ra, rb) else (rb, ra) in
      parent.(gone) <- keep;
      for i = 0 to n - 1 do
        if i <> keep && i <> gone then begin
          let c = edges.((keep * n) + i) + edges.((gone * n) + i) in
          edges.((keep * n) + i) <- c;
          edges.((i * n) + keep) <- c
        end
      done;
      edges.((keep * n) + gone) <- 0;
      edges.((gone * n) + keep) <- 0;
      let ik = info.(keep) and ig = info.(gone) in
      info.(keep) <-
        {
          ik with
          Affinity.est = ik.Affinity.est + ig.Affinity.est;
          ops = ik.Affinity.ops + ig.Affinity.ops;
          line_lo = min ik.Affinity.line_lo ig.Affinity.line_lo;
          line_hi = max ik.Affinity.line_hi ig.Affinity.line_hi;
        }
    end
  in
  List.iter (fun (a, b) -> union a b) g.Code_graph.deps.Deps.must_merge;
  let roots () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if find parent i = i then acc := i :: !acc
    done;
    !acc
  in
  (* Merge every cycle among current clusters into a single cluster. *)
  let merge_cycles () =
    let rec fixpoint () =
      let rs = roots () in
      let index = Hashtbl.create 16 in
      List.iteri (fun i r -> Hashtbl.replace index r i) rs;
      let m = List.length rs in
      let adj = Array.make m [] in
      List.iter
        (fun (e : Deps.edge) ->
          match e.Deps.kind with
          | Deps.Data _ | Deps.Control _ ->
            let a = Hashtbl.find index (find parent e.Deps.src)
            and b = Hashtbl.find index (find parent e.Deps.dst) in
            if a <> b then adj.(a) <- b :: adj.(a)
          | Deps.Anti _ | Deps.Mem _ -> ())
        g.Code_graph.deps.Deps.edges;
      (* Tarjan SCC. *)
      let idx = Array.make m (-1)
      and low = Array.make m 0
      and on_stack = Array.make m false in
      let stack = ref [] and counter = ref 0 in
      let merged_any = ref false in
      let rs_arr = Array.of_list rs in
      let rec strongconnect v =
        idx.(v) <- !counter;
        low.(v) <- !counter;
        incr counter;
        stack := v :: !stack;
        on_stack.(v) <- true;
        List.iter
          (fun w ->
            if idx.(w) = -1 then begin
              strongconnect w;
              low.(v) <- min low.(v) low.(w)
            end
            else if on_stack.(w) then low.(v) <- min low.(v) idx.(w))
          adj.(v);
        if low.(v) = idx.(v) then begin
          let rec pop acc =
            match !stack with
            | w :: rest ->
              stack := rest;
              on_stack.(w) <- false;
              if w = v then w :: acc else pop (w :: acc)
            | [] -> acc
          in
          let scc = pop [] in
          match scc with
          | first :: (_ :: _ as rest) ->
            List.iter (fun w -> union rs_arr.(first) rs_arr.(w)) rest;
            merged_any := true
          | _ -> ()
        end
      in
      for v = 0 to m - 1 do
        if idx.(v) = -1 then strongconnect v
      done;
      if !merged_any then fixpoint ()
    in
    fixpoint ()
  in
  if throughput then merge_cycles ();
  (* Pair order of a step: score descending, then (a, b) ascending. *)
  let by_rank (s1, a1, b1) (s2, a2, b2) =
    match compare s2 s1 with 0 -> compare (a1, b1) (a2, b2) | c -> c
  in
  (* One heuristic step: merge the best pair (or the best disjoint pairs
     for the multi-pair variant).  Returns false when no merge happened. *)
  let step () =
    let current = !live in
    if current <= cores then false
    else begin
      let rs = Array.make current 0 and k = ref 0 in
      for i = 0 to n - 1 do
        if parent.(i) = i then begin
          rs.(!k) <- i;
          incr k
        end
      done;
      let max_edges = ref 0 and total_est = ref 0 in
      let top1 = ref min_int and top2 = ref min_int in
      for i = 0 to current - 1 do
        let a = rs.(i) in
        let est = info.(a).Affinity.est in
        total_est := !total_est + est;
        if est > !top1 then begin
          top2 := !top1;
          top1 := est
        end
        else if est > !top2 then top2 := est;
        for j = i + 1 to current - 1 do
          max_edges := max !max_edges edges.((a * n) + rs.(j))
        done
      done;
      let max_edges = !max_edges in
      let max_pair_est = if current >= 2 then !top1 + !top2 else 0 in
      (* Balance cap: avoid growing any partition past its fair share of
         the total estimated time (with some slack), falling back to
         unconstrained pairs when nothing fits.  Without this, the
         dependence-edge heuristic snowballs one giant partition. *)
      let est_limit = !total_est * 5 / (4 * cores) + 1 in
      (* [`Greedy] keeps only the head of each class: scanning (a, b)
         ascending and replacing on a strictly greater score gives the
         head of [by_rank]. *)
      let capped = ref [] and uncapped = ref [] in
      for i = 0 to current - 2 do
        let a = rs.(i) in
        for j = i + 1 to current - 1 do
          let b = rs.(j) in
          let s =
            Affinity.score ~weights ~edges:edges.((a * n) + b) ~max_edges
              ~max_pair_est info.(a) info.(b)
          in
          let cls =
            if info.(a).Affinity.est + info.(b).Affinity.est <= est_limit
            then capped
            else uncapped
          in
          match (algorithm, !cls) with
          | `Greedy, [ (best, _, _) ] when compare s best <= 0 -> ()
          | `Greedy, _ -> cls := [ (s, a, b) ]
          | `Multi_pair, l -> cls := (s, a, b) :: l
        done
      done;
      let pairs = if !capped <> [] then !capped else !uncapped in
      match List.sort by_rank pairs with
      | [] -> false
      | sorted ->
        let budget =
          match algorithm with
          | `Greedy -> 1
          | `Multi_pair -> max 1 ((current - cores + 1) / 2)
        in
        let used = Hashtbl.create 16 in
        let merged = ref 0 in
        List.iter
          (fun (_, a, b) ->
            if
              !merged < budget
              && (not (Hashtbl.mem used a))
              && not (Hashtbl.mem used b)
            then begin
              Hashtbl.replace used a ();
              Hashtbl.replace used b ();
              union a b;
              incr merged
            end)
          sorted;
        if throughput then merge_cycles ();
        !merged > 0
    end
  in
  while step () do
    ()
  done;
  (* Queue-count constraint (Section II): "when the number of available
     queues is limited, we can constrain the partitioning so that code
     uses at most a specific number of queues".  Each directed
     cross-partition (src, dst) pair needs its own queue; while too many
     are in use, merge the partition pair exchanging the most values. *)
  (match max_queue_pairs with
  | None -> ()
  | Some limit ->
    let rec reduce () =
      let directed = Hashtbl.create 16 and undirected = Hashtbl.create 16 in
      List.iter
        (fun (e : Deps.edge) ->
          match e.Deps.kind with
          | Deps.Data _ | Deps.Control _ ->
            let a = find parent e.Deps.src and b = find parent e.Deps.dst in
            if a <> b then begin
              Hashtbl.replace directed (a, b) ();
              let key = (min a b, max a b) in
              Hashtbl.replace undirected key
                (1 + Option.value ~default:0 (Hashtbl.find_opt undirected key))
            end
          | Deps.Anti _ | Deps.Mem _ -> ())
        g.Code_graph.deps.Deps.edges;
      if Hashtbl.length directed > limit then begin
        let best =
          Hashtbl.fold
            (fun pair count acc ->
              match acc with
              | Some (_, c) when c >= count -> acc
              | _ -> Some (pair, count))
            undirected None
        in
        match best with
        | Some ((a, b), _) ->
          union a b;
          reduce ()
        | None -> ()
      end
    in
    reduce ());
  (* Compact cluster ids in order of first member. *)
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  let cluster_of =
    Array.init n (fun i ->
        let r = find parent i in
        match Hashtbl.find_opt mapping r with
        | Some c -> c
        | None ->
          let c = !next in
          incr next;
          Hashtbl.replace mapping r c;
          c)
  in
  { cluster_of; n_clusters = !next; merge_steps = !steps }

(** Compute ops per cluster; used for the Table III "Load Balance" column
    (max ops in a partition / min ops in a partition). *)
let ops_per_cluster (g : Code_graph.t) (res : result) =
  let ops = Array.make res.n_clusters 0 in
  Array.iter
    (fun (nd : Code_graph.node) ->
      let c = res.cluster_of.(nd.Code_graph.fid) in
      ops.(c) <- ops.(c) + nd.Code_graph.ops)
    g.Code_graph.nodes;
  ops

let load_balance (g : Code_graph.t) (res : result) =
  let ops = ops_per_cluster g res in
  let mx = Array.fold_left max 0 ops and mn = Array.fold_left min max_int ops in
  float_of_int mx /. float_of_int (max 1 mn)

(* Code-graph, merge and scheduling tests (Section III-B), including the
   throughput-heuristic invariant (final partitions form a DAG) and
   qcheck properties of the global schedule. *)

open Finepar_ir
open Finepar_analysis
open Finepar_partition
open Builder

let pipeline ?(max_height = 2) k =
  let r = Region.of_kernel ~max_height k in
  let split, _ = Finepar_fiber.Fiber.split r in
  let deps = Deps.analyze split in
  let graph = Code_graph.build ~profile:Profile.all_hits split deps in
  (split, deps, graph)

let medium_kernel =
  kernel ~name:"m" ~index:"i" ~lo:0 ~hi:16
    ~arrays:[ farr "a" 16; farr "b" 16; farr "c" 16; farr "o1" 16; farr "o2" 16 ]
    ~scalars:[ fscalar "acc" ]
    ~live_out:[ "acc" ]
    [
      set "x1" ((ld "a" (v "i") *: ld "b" (v "i")) +: f 0.5);
      set "x2" (sqrt_ (v "x1" +: f 1.0));
      set "y1" (ld "c" (v "i") /: (v "x1" +: f 2.0));
      set "y2" ((v "y1" *: v "y1") -: v "x2");
      set "acc" (v "acc" +: v "y2");
      store "o1" (v "i") (v "x2" *: f 3.0);
      store "o2" (v "i") (v "y1" +: v "y2");
    ]

(* ------------------------------------------------------------------ *)

let test_merge_reaches_core_count () =
  let _, _, graph = pipeline medium_kernel in
  List.iter
    (fun cores ->
      let res = Merge.run ~cores graph in
      Alcotest.(check bool)
        (Printf.sprintf "at most %d clusters" cores)
        true
        (res.Merge.n_clusters <= cores);
      Alcotest.(check bool) "at least one cluster" true (res.Merge.n_clusters >= 1))
    [ 1; 2; 4; 8 ]

let test_merge_respects_must_merge () =
  let _, deps, graph = pipeline medium_kernel in
  let res = Merge.run ~cores:4 graph in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "fibers %d and %d co-located" a b)
        res.Merge.cluster_of.(a) res.Merge.cluster_of.(b))
    deps.Deps.must_merge

let test_merge_cluster_ids_compact () =
  let _, _, graph = pipeline medium_kernel in
  let res = Merge.run ~cores:4 graph in
  let seen = Array.make res.Merge.n_clusters false in
  Array.iter (fun c -> seen.(c) <- true) res.Merge.cluster_of;
  Alcotest.(check bool) "every cluster id used" true (Array.for_all Fun.id seen)

let quotient_is_dag (graph : Code_graph.t) (res : Merge.result) =
  let n = res.Merge.n_clusters in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Deps.edge) ->
      match e.Deps.kind with
      | Deps.Data _ | Deps.Control _ ->
        let a = res.Merge.cluster_of.(e.Deps.src)
        and b = res.Merge.cluster_of.(e.Deps.dst) in
        if a <> b then adj.(a) <- b :: adj.(a)
      | Deps.Anti _ | Deps.Mem _ -> ())
    graph.Code_graph.deps.Deps.edges;
  (* DFS cycle check. *)
  let color = Array.make n 0 in
  let rec visit u =
    if color.(u) = 1 then false
    else if color.(u) = 2 then true
    else begin
      color.(u) <- 1;
      let ok = List.for_all visit adj.(u) in
      color.(u) <- 2;
      ok
    end
  in
  List.for_all visit (List.init n Fun.id)

let test_throughput_heuristic_yields_dag () =
  List.iter
    (fun (e : Finepar_kernels.Registry.entry) ->
      let _, _, graph = pipeline e.Finepar_kernels.Registry.kernel in
      let res = Merge.run ~throughput:true ~cores:4 graph in
      Alcotest.(check bool)
        (e.Finepar_kernels.Registry.kernel.Kernel.name
        ^ ": unidirectional partitions")
        true
        (quotient_is_dag graph res))
    Finepar_kernels.Registry.all

let test_multipair_merges_faster () =
  let e = Option.get (Finepar_kernels.Registry.find "irs-1") in
  let _, _, graph = pipeline e.Finepar_kernels.Registry.kernel in
  let greedy = Merge.run ~algorithm:`Greedy ~cores:4 graph in
  let multi = Merge.run ~algorithm:`Multi_pair ~cores:4 graph in
  Alcotest.(check bool) "both reach the core count" true
    (greedy.Merge.n_clusters <= 4 && multi.Merge.n_clusters <= 4);
  Alcotest.(check bool) "same merge work overall" true
    (multi.Merge.merge_steps = greedy.Merge.merge_steps)

(* Golden digest of every partition the merge produces over the registry
   and corpus targets and the first 200 fuzz graphs, under both
   algorithms, with and without the throughput heuristic and the queue
   limit, at 1/2/4/8 cores.  The property tests above would not notice a
   changed tie-break; this pins the exact [cluster_of], [n_clusters] and
   [merge_steps].  Update the digest only for an intended change of the
   merge heuristic (it changes compiled code, so bump
   [Version.code_version] with it). *)
let golden_merge_digest = "0db8d66ee2bac8bc5db4e89e43dd97ed"

let test_merge_golden () =
  let module Search = Finepar_tune.Search in
  let module Compiler = Finepar.Compiler in
  let graph_of ~max_height ~speculation kernel =
    let kernel =
      if speculation then fst (Finepar_transform.Speculate.apply kernel)
      else kernel
    in
    let _, _, graph = pipeline ~max_height kernel in
    graph
  in
  let graphs =
    List.map
      (fun (t : Search.target) ->
        graph_of ~max_height:Region.default_max_height ~speculation:false
          t.Search.t_kernel)
      (Search.registry_targets () @ Search.corpus_targets ())
    @ List.init 200 (fun seed ->
          let case = Finepar_fuzz.Gen.case_of_seed seed in
          let c = case.Finepar_fuzz.Gen.config in
          graph_of ~max_height:c.Compiler.max_height
            ~speculation:c.Compiler.speculation case.Finepar_fuzz.Gen.kernel)
  in
  let buf = Buffer.create 65536 in
  List.iter
    (fun graph ->
      List.iter
        (fun algorithm ->
          List.iter
            (fun throughput ->
              List.iter
                (fun max_queue_pairs ->
                  List.iter
                    (fun cores ->
                      let r =
                        Merge.run ~algorithm ~throughput ?max_queue_pairs
                          ~cores graph
                      in
                      Array.iter
                        (fun c -> Printf.bprintf buf "%d," c)
                        r.Merge.cluster_of;
                      Printf.bprintf buf "|%d|%d\n" r.Merge.n_clusters
                        r.Merge.merge_steps)
                    [ 1; 2; 4; 8 ])
                [ None; Some 2 ])
            [ false; true ])
        [ `Greedy; `Multi_pair ])
    graphs;
  Alcotest.(check string)
    "partition digest" golden_merge_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_load_balance_positive () =
  let _, _, graph = pipeline medium_kernel in
  let res = Merge.run ~cores:4 graph in
  Alcotest.(check bool) "balance >= 1" true (Merge.load_balance graph res >= 1.0)

(* ------------------------------------------------------------------ *)
(* Affinity heuristics.                                                *)

let cluster id est line =
  { Affinity.id; est; ops = est; line_lo = line; line_hi = line }

let test_affinity_prefers_connected () =
  let a = cluster 0 10 0 and b = cluster 1 10 1 and c = cluster 2 10 50 in
  let score ~edges x y =
    Affinity.score ~weights:Affinity.default ~edges ~max_edges:4
      ~max_pair_est:40 x y
  in
  Alcotest.(check bool) "edges raise affinity" true
    (score ~edges:4 a b > score ~edges:0 a b);
  Alcotest.(check bool) "proximity raises affinity" true
    (score ~edges:0 a b > score ~edges:0 a c);
  let big = cluster 3 38 2 in
  Alcotest.(check bool) "smaller pairs preferred" true
    (score ~edges:0 a b > score ~edges:0 a big)

let test_line_distance () =
  let a = { (cluster 0 1 0) with Affinity.line_lo = 2; line_hi = 5 }
  and b = { (cluster 1 1 0) with Affinity.line_lo = 8; line_hi = 9 }
  and c = { (cluster 2 1 0) with Affinity.line_lo = 4; line_hi = 7 } in
  Alcotest.(check int) "gap" 3 (Affinity.line_distance a b);
  Alcotest.(check int) "overlap is zero" 0 (Affinity.line_distance a c);
  Alcotest.(check int) "symmetric" 3 (Affinity.line_distance b a)

(* ------------------------------------------------------------------ *)
(* Scheduling.                                                         *)

let test_schedule_is_permutation () =
  let _, _, graph = pipeline medium_kernel in
  let res = Merge.run ~cores:4 graph in
  let order = Schedule.order graph ~cluster_of:res.Merge.cluster_of in
  let n = Code_graph.n_nodes graph in
  Alcotest.(check int) "every fiber scheduled once" n (List.length order);
  Alcotest.(check (list int)) "permutation of 0..n-1" (List.init n Fun.id)
    (List.sort compare order)

let test_schedule_topological () =
  let _, deps, graph = pipeline medium_kernel in
  let res = Merge.run ~cores:4 graph in
  let order = Schedule.order graph ~cluster_of:res.Merge.cluster_of in
  let pos = Array.make (List.length order) 0 in
  List.iteri (fun idx f -> pos.(f) <- idx) order;
  List.iter
    (fun (e : Deps.edge) ->
      Alcotest.(check bool)
        (Fmt.str "edge %a respected" Deps.pp_edge e)
        true
        (pos.(e.Deps.src) < pos.(e.Deps.dst)))
    deps.Deps.edges

let test_schedule_deterministic () =
  let _, _, graph = pipeline medium_kernel in
  let res = Merge.run ~cores:4 graph in
  let o1 = Schedule.order graph ~cluster_of:res.Merge.cluster_of in
  let o2 = Schedule.order graph ~cluster_of:res.Merge.cluster_of in
  Alcotest.(check (list int)) "same schedule twice" o1 o2

(* qcheck: across all registry kernels, scheduling is a valid topological
   permutation for every core count. *)
let prop_schedule_all_kernels =
  QCheck.Test.make ~count:18 ~name:"schedule valid for every kernel"
    (QCheck.make
       (QCheck.Gen.oneofl Finepar_kernels.Registry.all)
       ~print:(fun e -> e.Finepar_kernels.Registry.kernel.Kernel.name))
    (fun e ->
      let _, deps, graph = pipeline e.Finepar_kernels.Registry.kernel in
      List.for_all
        (fun cores ->
          let res = Merge.run ~cores graph in
          let order = Schedule.order graph ~cluster_of:res.Merge.cluster_of in
          let pos = Array.make (List.length order) 0 in
          List.iteri (fun idx f -> pos.(f) <- idx) order;
          List.length order = Code_graph.n_nodes graph
          && List.for_all
               (fun (e : Deps.edge) -> pos.(e.Deps.src) < pos.(e.Deps.dst))
               deps.Deps.edges)
        [ 1; 2; 4 ])

let () =
  Alcotest.run "partition"
    [
      ( "merge",
        [
          Alcotest.test_case "reaches core count" `Quick
            test_merge_reaches_core_count;
          Alcotest.test_case "respects must-merge" `Quick
            test_merge_respects_must_merge;
          Alcotest.test_case "compact cluster ids" `Quick
            test_merge_cluster_ids_compact;
          Alcotest.test_case "throughput heuristic yields DAG" `Quick
            test_throughput_heuristic_yields_dag;
          Alcotest.test_case "multi-pair variant" `Quick
            test_multipair_merges_faster;
          Alcotest.test_case "load balance sane" `Quick
            test_load_balance_positive;
          Alcotest.test_case "golden partitions" `Quick test_merge_golden;
        ] );
      ( "affinity",
        [
          Alcotest.test_case "heuristic ordering" `Quick
            test_affinity_prefers_connected;
          Alcotest.test_case "line distance" `Quick test_line_distance;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "permutation" `Quick test_schedule_is_permutation;
          Alcotest.test_case "topological" `Quick test_schedule_topological;
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_schedule_all_kernels ] );
    ]

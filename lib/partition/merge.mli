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
    any heuristic merging. *)

type algorithm = [ `Greedy | `Multi_pair ]
type result = {
  cluster_of : int array;
  n_clusters : int;
  merge_steps : int;
}
val run :
  ?algorithm:[< `Greedy | `Multi_pair > `Greedy ] ->
  ?throughput:bool ->
  ?max_queue_pairs:int ->
  ?weights:Affinity.weights ->
  cores:int -> Code_graph.t -> result
val load_balance : Code_graph.t -> result -> float

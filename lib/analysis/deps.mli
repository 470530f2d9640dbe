(** Dependence analysis over a (fiber-split) region.

    Produces the edges of the code graph (Section III-B: "Edges between
    nodes represent data and control dependences ... determined from
    use-def analysis, aliasing information, and dependence vectors") plus
    the set of must-merge constraints that keep the generated code free of
    cross-core memory-carried and loop-carried traffic:

    - multiply-defined scalars are owned by a single core (all defs and
      uses co-located);
    - loop-carried scalar reads are co-located with the defs they race
      with;
    - may-aliasing memory accesses to the same array are co-located and
      ordered.

    These constraints are what lets the compiler statically guarantee that
    every enqueue is matched by a dequeue (Section III-I). *)

module SS : Set.S with type elt = String.t and type t = Set.Make(String).t
module SM : Map.S with type key = String.t and type +'a t = 'a Map.Make(String).t
type edge_kind =
    Data of string
  | Control of string
  | Anti of string
  | Mem of string
type edge = { src : int; dst : int; kind : edge_kind; }
val pp_edge : Format.formatter -> edge -> unit
type t = {
  region : Finepar_ir.Region.t;
  n : int;
  edges : edge list;
  must_merge : (int * int) list;
  live_in : SS.t;
  loop_carried : SS.t;
  defs : int list SM.t;
  owners : int SM.t;
}
exception Unsupported of string
val unsupported : ('a, Format.formatter, unit, 'b) format4 -> 'a
val data_dep_count : t -> int
val analyze : Finepar_ir.Region.t -> t
val sorted_edges : t -> edge list
val pp : Format.formatter -> t -> unit

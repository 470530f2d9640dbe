(** The code graph of Section III-B: one node per fiber, edges for data and
    control dependences between the code sections the fibers represent. *)

type node = {
  fid : int;
  stmt : Finepar_ir.Region.sstmt;
  ops : int;
  est : int;
  line : int;
}
type t = {
  nodes : node array;
  deps : Finepar_analysis.Deps.t;
  out_edges : Finepar_analysis.Deps.edge list array;
  in_edges : Finepar_analysis.Deps.edge list array;
}
val build :
  profile:Finepar_analysis.Profile.t ->
  Finepar_ir.Region.t -> Finepar_analysis.Deps.t -> t
val n_nodes : t -> int
val pp : Format.formatter -> t -> unit

(** The persistent regression corpus under [test/fuzz_corpus/]. *)

type entry = { path : string; case : Gen.case }

type replay = {
  entry : entry;
  outcome : (Oracle.outcome, string) result;
      (** [Error _] when the file does not parse. *)
}

val files : string -> string list
(** Corpus files in a directory, sorted; empty if the directory is
    missing. *)

val load_file : string -> entry

val replay_dir :
  ?compile:Oracle.compile_fn ->
  ?engine:Finepar_machine.Engine.t ->
  string ->
  replay list

val save :
  string ->
  oracle:string ->
  seed:int ->
  ?failure:Oracle.failure ->
  Gen.case ->
  string
(** [save dir ~oracle ~seed case] writes a reproducer into [dir]
    (creating it) and returns the path. *)

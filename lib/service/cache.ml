(** Content-addressed response store.

    A key is (kernel digest, config digest, request kind, code
    version); the digests are MD5 over {!Wire}'s digest inputs (the
    kernel's canonical text; the rest of the job's canonical text plus
    its workload's values in binary), the kind tells run and compile
    answers apart, and the code version invalidates everything
    when the pipeline's result semantics change (see {!Version} and
    DESIGN.md).  The engine of a run request is not part of the key:
    both engines answer with the same bytes, so an answer computed
    under one is a hit under the other.

    On disk an entry is one file under a two-character shard directory:

    {v store/ab/ab12...ef.sexp v}

    whose first line is the canonical key header plus the MD5 of the
    payload, and whose remainder is the canonical response string,
    stored verbatim — a hit returns the exact bytes a fresh computation
    would have produced.  Reads verify the header against the requested
    key and the payload read (collision/corruption guard); anything
    malformed, truncated or mismatched counts as [corrupt] and behaves
    as a miss (the bad file is removed).  Writes go through a
    pid-suffixed temp file and [rename], so a torn write can never
    produce a half entry.

    All lookups and stores happen on the calling domain (the server
    does cache IO outside its {!Finepar_exec.Pool} fan-out), so no
    locking is needed; the atomic rename makes concurrent server
    processes sharing one store safe too. *)

module Tracer = Finepar_telemetry.Tracer
module Json = Finepar_telemetry.Json

type key = {
  kernel_digest : string;  (** MD5 hex of {!Wire.kernel_canon} *)
  config_digest : string;  (** MD5 hex of {!Wire.config_digest_input} *)
  kind : string;  (** {!Wire.kind_slot} *)
  version : string;  (** {!Version.code_version} unless overridden *)
}

type t = {
  dir : string;
  version : string;
  max_entries : int option;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable corrupt : int;
  mutable evictions : int;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?max_entries ?(version = Version.code_version) dir =
  mkdir_p dir;
  { dir; version; max_entries; hits = 0; misses = 0; stores = 0;
    corrupt = 0; evictions = 0 }

let digest_hex s = Digest.to_hex (Digest.string s)

let key_of_request t req =
  match (Wire.job_of_request req, Wire.kind_slot req) with
  | Some job, Some kind ->
    Some
      {
        kernel_digest = digest_hex (Wire.kernel_canon job);
        config_digest = digest_hex (Wire.config_digest_input job);
        kind;
        version = t.version;
      }
  | _ -> None

let header key body =
  Printf.sprintf
    "(entry (kernel_digest %s) (config_digest %s) (kind %s) (version %s) \
     (body_digest %s))"
    key.kernel_digest key.config_digest key.kind key.version (digest_hex body)

let path t key =
  let hex =
    digest_hex
      (String.concat "\x00"
         [ key.kernel_digest; key.config_digest; key.kind; key.version ])
  in
  Filename.concat (Filename.concat t.dir (String.sub hex 0 2)) (hex ^ ".sexp")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Shard directories hold only entry files; anything else in the store
   root (temp files mid-rename) is ignored. *)
let entry_files t =
  if not (Sys.file_exists t.dir) then []
  else
    Array.to_list (Sys.readdir t.dir)
    |> List.filter (fun d -> String.length d = 2)
    |> List.concat_map (fun d ->
           let shard = Filename.concat t.dir d in
           if Sys.is_directory shard then
             Array.to_list (Sys.readdir shard)
             |> List.filter (fun f -> Filename.check_suffix f ".sexp")
             |> List.map (Filename.concat shard)
           else [])

let entries t = List.length (entry_files t)

let corrupt_miss t path =
  t.corrupt <- t.corrupt + 1;
  t.misses <- t.misses + 1;
  Tracer.add_counter "service.cache.corrupt";
  Tracer.add_counter "service.cache.miss";
  (try Sys.remove path with Sys_error _ -> ());
  None

let find t key =
  let p = path t key in
  if not (Sys.file_exists p) then begin
    t.misses <- t.misses + 1;
    Tracer.add_counter "service.cache.miss";
    None
  end
  else
    match read_file p with
    | exception Sys_error _ -> corrupt_miss t p
    | exception End_of_file -> corrupt_miss t p
    | contents -> (
      match String.index_opt contents '\n' with
      | None -> corrupt_miss t p
      | Some nl ->
        let hdr = String.sub contents 0 nl in
        let body =
          String.sub contents (nl + 1) (String.length contents - nl - 1)
        in
        let body =
          if String.length body > 0 && body.[String.length body - 1] = '\n'
          then String.sub body 0 (String.length body - 1)
          else body
        in
        (* The body digest makes a damaged or truncated payload a miss,
           not a crash downstream, without re-parsing the response. *)
        if not (String.equal hdr (header key body)) then corrupt_miss t p
        else begin
          t.hits <- t.hits + 1;
          Tracer.add_counter "service.cache.hit";
          Some body
        end)

let evict_over_limit t =
  match t.max_entries with
  | None -> ()
  | Some limit ->
    let files = entry_files t in
    let excess = List.length files - limit in
    if excess > 0 then begin
      let with_mtime =
        List.map (fun f -> ((Unix.stat f).Unix.st_mtime, f)) files
      in
      let oldest_first = List.sort compare with_mtime in
      List.iteri
        (fun i (_, f) ->
          if i < excess then begin
            (try Sys.remove f with Sys_error _ -> ());
            t.evictions <- t.evictions + 1;
            Tracer.add_counter "service.cache.eviction"
          end)
        oldest_first
    end

let store t key response =
  let p = path t key in
  mkdir_p (Filename.dirname p);
  let tmp = Printf.sprintf "%s.tmp.%d" p (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (header key response);
      output_char oc '\n';
      output_string oc response;
      output_char oc '\n');
  Sys.rename tmp p;
  t.stores <- t.stores + 1;
  Tracer.add_counter "service.cache.store";
  evict_over_limit t

let counters t =
  [
    ("hits", t.hits);
    ("misses", t.misses);
    ("stores", t.stores);
    ("corrupt", t.corrupt);
    ("evictions", t.evictions);
    ("entries", entries t);
  ]

let stats_json t =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) (counters t))

(** The compile-and-simulate server.

    One frame carries one batch.  Handling is three deterministic
    phases: (1) cache lookups and control requests on the calling
    domain, in request order; (2) the misses, one {!Finepar.Job.eval}
    per distinct key, fanned out over {!Finepar_exec.Pool} (whose merge
    is task-index ordered); (3) stores and slot fills back on the
    calling domain, in first-miss order.  Nothing in any phase depends
    on domain scheduling, so responses are byte-identical at [-j1] and
    [-jN], and a cached response is byte-identical to a fresh one
    because the cache stores the canonical response string verbatim.

    Pipeline failures (compile rejection, simulator deadlock, evaluator
    mismatch) become [Error] responses rendered through the exceptions'
    registered printers — deterministic, but never cached. *)

module Runner = Finepar.Runner
module Job = Finepar.Job
module Pool = Finepar_exec.Pool

type t = {
  cache : Cache.t;
  pool : Pool.t option;
  mutable stop : bool;
}

let create ?pool ~cache () = { cache; pool; stop = false }

(* (canonical response string, cacheable).  A run is {!Finepar.Job.eval},
   checked bit-exact against the reference evaluator, so its numbers are
   exactly what the in-process evaluator measures for the same job.
   Errors are deterministic but never cached: a stored error would mask
   a later fix only a code version bump could clear. *)
let compute (job, engine) =
  match Job.eval ~engine job with
  | r ->
    ( Wire.response_to_string
        (Wire.Run_result
           {
             cycles = r.Runner.cycles;
             load_counters = r.Runner.load_counters;
             report = r.Runner.telemetry;
           }),
      true )
  | exception e ->
    (Wire.response_to_string (Wire.Error (Printexc.to_string e)), false)

(* ------------------------------------------------------------------ *)
(* Batch handling.                                                      *)

let control t = function
  | Wire.Stats -> Wire.Stats_result (Cache.counters t.cache)
  | Wire.Ping -> Wire.Pong Version.code_version
  | Wire.Shutdown ->
    t.stop <- true;
    Wire.Shutdown_ack
  | Wire.Run _ -> assert false

let handle_requests t (reqs : (Wire.request, string) result list) :
    string list =
  let slots = Array.make (List.length reqs) "" in
  let misses = ref [] in
  (* Slots per missed key: twins (same full key, e.g. one job's run
     under both engines) are computed once and share its bytes. *)
  let twins = Hashtbl.create 16 in
  List.iteri
    (fun i req ->
      match req with
      | Error msg ->
        slots.(i) <-
          Wire.response_to_string (Wire.Error ("parse error: " ^ msg))
      | Ok (Wire.Run { job; engine } as req) -> (
        let key = Option.get (Cache.key_of_request t.cache req) in
        match Cache.find t.cache key with
        | Some body -> slots.(i) <- body
        | None -> (
          match Hashtbl.find_opt twins key with
          | Some slots -> slots := i :: !slots
          | None ->
            Hashtbl.add twins key (ref [ i ]);
            misses := (key, (job, engine)) :: !misses))
      | Ok req -> slots.(i) <- Wire.response_to_string (control t req))
    reqs;
  let misses = List.rev !misses in
  let computed = Pool.map_opt t.pool ~f:(fun (_, run) -> compute run) misses in
  List.iter2
    (fun (key, _) (body, cacheable) ->
      if cacheable then Cache.store t.cache key body;
      List.iter (fun i -> slots.(i) <- body) !(Hashtbl.find twins key))
    misses computed;
  Array.to_list slots

let handle_frame t payload =
  match Finepar_fuzz.Repro.parse_sexp payload with
  | exception e ->
    Wire.response_to_string
      (Wire.Error ("parse error: " ^ Printexc.to_string e))
  | Finepar_fuzz.Repro.List (Finepar_fuzz.Repro.Atom "batch" :: items) ->
    let reqs =
      List.map
        (fun item ->
          match Wire.request_of_sexp item with
          | req -> Ok req
          | exception e -> Error (Printexc.to_string e))
        items
    in
    Wire.batch_of_response_strings (handle_requests t reqs)
  | sexp -> (
    match Wire.request_of_sexp sexp with
    | req -> List.hd (handle_requests t [ Ok req ])
    | exception e ->
      Wire.response_to_string
        (Wire.Error ("parse error: " ^ Printexc.to_string e)))

(* ------------------------------------------------------------------ *)
(* Framing: "<decimal byte count>\n<payload>".                          *)

let max_frame = 256 * 1024 * 1024

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  flush oc

type frame = Frame of string | End_of_input | Bad_header of string

(* A byte count needs a few digits, so a header longer than this is bad
   whatever follows and no more of it is read: a client cannot make the
   server buffer, or echo back, an unbounded line. *)
let max_header = 64

let read_header ic =
  let buf = Buffer.create 16 in
  let rec go () =
    match input_char ic with
    | '\n' -> Some (Buffer.contents buf)
    | c ->
      Buffer.add_char buf c;
      if Buffer.length buf > max_header then Some (Buffer.contents buf)
      else go ()
    | exception End_of_file ->
      if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
  in
  go ()

let read_frame ic =
  match read_header ic with
  | None -> End_of_input
  | Some line when String.length line > max_header -> Bad_header line
  | Some line -> (
    match int_of_string_opt (String.trim line) with
    | Some n when n >= 0 && n <= max_frame -> (
      match really_input_string ic n with
      | s -> Frame s
      | exception End_of_file -> End_of_input)
    | _ -> Bad_header line)

let bad_header_message line =
  let shown =
    if String.length line > max_header then
      Printf.sprintf "%S (cut at %d bytes)" (String.sub line 0 max_header)
        max_header
    else Printf.sprintf "%S" line
  in
  Printf.sprintf "bad frame header %s: expected a byte count in 0..%d" shown
    max_frame

(* ------------------------------------------------------------------ *)
(* Serving loops.                                                       *)

(* A bad header leaves no way to find the next frame, so it is answered
   with one [Error] frame and the connection is closed. *)
let serve_channels t ic oc =
  let rec loop () =
    if not t.stop then
      match read_frame ic with
      | End_of_input -> ()
      | Bad_header line ->
        write_frame oc
          (Wire.response_to_string (Wire.Error (bad_header_message line)))
      | Frame payload ->
        write_frame oc (handle_frame t payload);
        loop ()
  in
  loop ()

let serve_socket t path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> () | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 16;
      while not t.stop do
        let client, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr client in
        let oc = Unix.out_channel_of_descr client in
        (try serve_channels t ic oc
         with Sys_error _ | Unix.Unix_error _ -> ());
        close_out_noerr oc;
        close_in_noerr ic
      done)

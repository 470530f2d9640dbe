(** Client side of the service: route a batch either through a live
    server over its Unix domain socket, or directly through the disk
    store in-process ([--via=store:DIR] — no server needed, same cache,
    same bytes). *)

type via = Store of string | Socket of string

let via_of_string s =
  match String.index_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "store" -> Ok (Store rest)
    | "socket" -> Ok (Socket rest)
    | _ ->
      Error
        (Printf.sprintf "bad --via %S: expected store:DIR or socket:PATH" s))
  | _ ->
    Error (Printf.sprintf "bad --via %S: expected store:DIR or socket:PATH" s)

let via_to_string = function
  | Store dir -> "store:" ^ dir
  | Socket path -> "socket:" ^ path

(* The server may still be binding when the client starts (CI launches
   both back to back), so connection attempts retry briefly. *)
let connect ?(attempts = 50) path =
  let rec go n =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> sock
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when n > 1 ->
      Unix.close sock;
      Unix.sleepf 0.1;
      go (n - 1)
    | exception e ->
      Unix.close sock;
      raise e
  in
  go attempts

let read_response ic =
  match Server.read_frame ic with
  | Server.Frame response -> response
  | Server.End_of_input -> failwith "service: server closed the connection"
  | Server.Bad_header line ->
    failwith (Printf.sprintf "service: bad frame header %S from server" line)

(* ------------------------------------------------------------------ *)
(* Sessions: one cache handle (Store) or one connection (Socket) that
   persists across many batches, so a generational search reuses the
   same store and the same socket for every generation's frame. *)

type session =
  | S_store of Server.t * Cache.t
  | S_socket of { ic : in_channel; oc : out_channel }

let open_session ?pool ?attempts via =
  match via with
  | Store dir ->
    let cache = Cache.create dir in
    (S_store (Server.create ?pool ~cache (), cache) : session)
  | Socket path ->
    let sock = connect ?attempts path in
    S_socket
      {
        ic = Unix.in_channel_of_descr sock;
        oc = Unix.out_channel_of_descr sock;
      }

let close_session = function
  | S_store _ -> ()
  | S_socket { ic; oc } ->
    close_out_noerr oc;
    close_in_noerr ic

let session_frame session payload =
  match session with
  | S_store (server, _) -> Server.handle_frame server payload
  | S_socket { ic; oc } -> (
    Server.write_frame oc payload;
    read_response ic)

let session_exec_strings session reqs =
  let payload = session_frame session (Wire.batch_to_string reqs) in
  match Wire.responses_of_string payload with
  | _ ->
    (* Re-split without re-rendering: items of a canonical batch are
       themselves canonical. *)
    List.map Finepar_fuzz.Repro.canon (Wire.batch_items_of_string payload)
  | exception _ -> failwith ("service: bad response payload: " ^ payload)

let session_exec session reqs =
  List.map Wire.response_of_string (session_exec_strings session reqs)

let session_counters session =
  match session with
  | S_store (_, cache) -> Cache.counters cache
  | S_socket _ -> (
    match session_exec session [ Wire.Stats ] with
    | [ Wire.Stats_result cs ] -> cs
    | _ -> failwith "service: bad stats response")

let with_session ?pool ?attempts via f =
  let session = open_session ?pool ?attempts via in
  Fun.protect ~finally:(fun () -> close_session session) (fun () -> f session)

let exec_strings ?pool ?attempts via reqs =
  with_session ?pool ?attempts via (fun s -> session_exec_strings s reqs)

let exec ?pool ?attempts via reqs =
  with_session ?pool ?attempts via (fun s -> session_exec s reqs)

(** Host-side span tracing.

    Where the simulator's per-cycle accounting observes the {e
    simulated machine}, the tracer observes the {e host
    pipeline itself}: compiler and verifier passes, simulator runs,
    fuzz cases, domain-pool tasks.  A span is a named wall-clock
    interval with a category, the domain it ran on, a parent link (the
    innermost open span of the same domain) and optional JSON arguments;
    spans nest freely and may be opened concurrently from several
    domains.

    Tracing is {e disabled by default} and must cost nearly nothing when
    off: {!with_span} on an uninstalled tracer is a single atomic load
    and a branch, so instrumentation can stay unconditionally in hot
    host paths (a compiler pass, a fuzz case — not a simulated cycle).
    Enable it by {!install}ing a tracer; every instrumentation site in
    the process then records into it, from whichever domain it runs on.

    Finished spans are appended to a mutex-guarded list (spans are
    coarse, so contention is irrelevant); the per-domain stack of open
    spans lives in domain-local storage, so parent links never cross
    domains.  Export through {!to_chrome} (one thread row per domain,
    see {!Chrome_trace}) or {!Profile_tree}. *)

type span = {
  id : int;
  parent : int;  (** span id, or -1 for a root span of its domain *)
  name : string;
  cat : string;
  domain : int;  (** the domain the span ran on ([Domain.self]) *)
  t0 : float;  (** seconds since the tracer's epoch *)
  mutable t1 : float;  (** negative while the span is still open *)
  mutable args : (string * Json.t) list;
}

let duration s = if s.t1 < 0. then 0. else s.t1 -. s.t0

type t = {
  epoch : float;
  lock : Mutex.t;
  mutable finished : span list;  (** completion order, reversed *)
  counters : (string, int) Hashtbl.t;
  next_id : int Atomic.t;
}

let create () =
  {
    epoch = Unix.gettimeofday ();
    lock = Mutex.create ();
    finished = [];
    counters = Hashtbl.create 16;
    next_id = Atomic.make 0;
  }

(* The installed tracer.  [with_span] runs on arbitrary domains, so the
   slot must be a data-race-free single load; [Atomic.t] is exactly
   that, and when no tracer is installed the load-and-branch is the
   whole cost of an instrumentation site. *)
let current : t option Atomic.t = Atomic.make None

let install t = Atomic.set current (Some t)
let uninstall () = Atomic.set current None
let active () = Atomic.get current

(* Per-domain stack of open spans (innermost first), for parent links.
   Worker domains spawned by the pool start with an empty stack, so
   their spans are roots of their own thread row. *)
let stack : span list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let with_span ?(cat = "host") ?(args = []) name f =
  match Atomic.get current with
  | None -> f ()
  | Some t ->
    let st = Domain.DLS.get stack in
    let parent = match st with [] -> -1 | s :: _ -> s.id in
    let s =
      {
        id = Atomic.fetch_and_add t.next_id 1;
        parent;
        name;
        cat;
        domain = (Domain.self () :> int);
        t0 = Unix.gettimeofday () -. t.epoch;
        t1 = -1.;
        args;
      }
    in
    Domain.DLS.set stack (s :: st);
    let finally () =
      s.t1 <- Unix.gettimeofday () -. t.epoch;
      Domain.DLS.set stack st;
      Mutex.protect t.lock (fun () -> t.finished <- s :: t.finished)
    in
    Fun.protect ~finally f

let set_arg key v =
  match Atomic.get current with
  | None -> ()
  | Some _ -> (
    match Domain.DLS.get stack with
    | [] -> ()
    | s :: _ -> s.args <- (key, v) :: List.remove_assoc key s.args)

let add_counter ?(by = 1) name =
  match Atomic.get current with
  | None -> ()
  | Some t ->
    Mutex.protect t.lock (fun () ->
        Hashtbl.replace t.counters name
          (by + Option.value ~default:0 (Hashtbl.find_opt t.counters name)))

(** Finished spans sorted by (start time, id) — a deterministic order
    for a fixed set of spans, independent of completion interleaving. *)
let spans t =
  let ss = Mutex.protect t.lock (fun () -> t.finished) in
  List.sort
    (fun a b ->
      match Float.compare a.t0 b.t0 with 0 -> compare a.id b.id | c -> c)
    ss

let counters t =
  let kvs =
    Mutex.protect t.lock (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [])
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) kvs

(* ------------------------------------------------------------------ *)
(* Chrome trace export: pid [host_pid] ("host"), one thread row per
   domain.  The tid of a domain is its rank among the distinct domain
   ids appearing in the trace (sorted ascending), so tids are small,
   stable and distinct — re-exporting the same trace always yields the
   same rows. *)

let host_pid = 3

let to_chrome ?(pid = host_pid) t =
  let spans = spans t in
  let domains =
    List.sort_uniq compare (List.map (fun s -> s.domain) spans)
  in
  let tid_of d =
    let rec rank i = function
      | [] -> i
      | d' :: rest -> if d' = d then i else rank (i + 1) rest
    in
    rank 0 domains
  in
  let us x = int_of_float (x *. 1e6) in
  let meta =
    Chrome_trace.Process_name { pid; name = "host" }
    :: List.concat_map
         (fun d ->
           let tid = tid_of d in
           [
             Chrome_trace.Thread_name
               { pid; tid; name = Printf.sprintf "domain %d" d };
             Chrome_trace.Thread_sort { pid; tid; index = tid };
           ])
         domains
  in
  let span_events =
    List.map
      (fun s ->
        Chrome_trace.Complete
          {
            name = s.name;
            cat = s.cat;
            pid;
            tid = tid_of s.domain;
            ts = us s.t0;
            dur = max 1 (us (duration s));
            args = s.args;
          })
      spans
  in
  let end_ts =
    List.fold_left (fun acc s -> max acc (us s.t1)) 0 spans
  in
  let counter_events =
    List.map
      (fun (name, v) ->
        Chrome_trace.Counter
          { name; pid; ts = end_ts; values = [ ("value", v) ] })
      (counters t)
  in
  meta @ span_events @ counter_events

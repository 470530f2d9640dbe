exception Nested_map

type stats = {
  domains : int;
  runs : int;
  run_seconds : float;
  tasks : int;
  busy_seconds : float;
  idle_seconds : float;
  imbalance : float;
}

type t = {
  n_domains : int;
  busy : bool Atomic.t;
      (* set while a [map] is running on a multi-domain pool; nested
         calls would spawn domains from inside domains, so they are
         rejected instead (see the .mli) *)
  stats_lock : Mutex.t;
  mutable runs : int;
  mutable run_seconds : float;
  mutable idle : float;
  acc_tasks : int array;  (** per worker slot, length [n_domains] *)
  acc_busy : float array;
}

let create ?domains () =
  let n_domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  {
    n_domains;
    busy = Atomic.make false;
    stats_lock = Mutex.create ();
    runs = 0;
    run_seconds = 0.;
    idle = 0.;
    acc_tasks = Array.make n_domains 0;
    acc_busy = Array.make n_domains 0.;
  }

let domains t = t.n_domains

(* Imbalance = max busy / mean busy over workers that ran at least one
   task: 1.0 is a perfectly even split, [workers] is one worker doing
   everything.  An idle pool reports 1.0. *)
let imbalance_of ~tasks ~busy =
  let sum = ref 0. and mx = ref 0. and active = ref 0 in
  Array.iteri
    (fun w b ->
      if tasks.(w) > 0 then begin
        incr active;
        sum := !sum +. b;
        mx := Float.max !mx b
      end)
    busy;
  if !active = 0 || !sum <= 0. then 1.
  else !mx /. (!sum /. float_of_int !active)

let stats t =
  Mutex.protect t.stats_lock (fun () ->
      {
        domains = t.n_domains;
        runs = t.runs;
        run_seconds = t.run_seconds;
        tasks = Array.fold_left ( + ) 0 t.acc_tasks;
        busy_seconds = Array.fold_left ( +. ) 0. t.acc_busy;
        idle_seconds = t.idle;
        imbalance = imbalance_of ~tasks:t.acc_tasks ~busy:t.acc_busy;
      })

let pp_stats ppf s =
  Fmt.pf ppf "pool: %d domains, %d tasks, busy %.3fs, idle %.3fs, imbalance %.2f"
    s.domains s.tasks s.busy_seconds s.idle_seconds s.imbalance

let stats_json s =
  let module J = Finepar_telemetry.Json in
  J.Obj
    [
      ("domains", J.Int s.domains);
      ("runs", J.Int s.runs);
      ("run_seconds", J.Float s.run_seconds);
      ("tasks", J.Int s.tasks);
      ("busy_seconds", J.Float s.busy_seconds);
      ("idle_seconds", J.Float s.idle_seconds);
      ("imbalance", J.Float s.imbalance);
    ]

(* Self-scheduling: every worker claims the next unclaimed task index
   from one shared counter until the range runs out.  No task spawns
   further tasks, so a worker that finds the range empty is done.  Each
   worker owns one slot of [tasks]/[busy]/[idle], so recording is
   unsynchronized; the calling domain reads them after every helper is
   joined.  Worker 0 is the calling domain, so one worker is a plain
   sequential loop. *)
let run ~workers ~n task =
  let next = Atomic.make 0 in
  let tasks = Array.make workers 0
  and busy = Array.make workers 0.
  and idle = Array.make workers 0. in
  let worker w =
    let t0 = Unix.gettimeofday () in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t = Unix.gettimeofday () in
        task i;
        busy.(w) <- busy.(w) +. (Unix.gettimeofday () -. t);
        tasks.(w) <- tasks.(w) + 1;
        loop ()
      end
    in
    loop ();
    idle.(w) <- Float.max 0. (Unix.gettimeofday () -. t0 -. busy.(w))
  in
  let helpers =
    List.init (workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
  in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join helpers)
    (fun () -> worker 0);
  (tasks, busy, idle)

let map pool ~f xs =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let results = Array.make n None in
  let task i =
    results.(i) <-
      Some
        (match f arr.(i) with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
  in
  let workers = max 1 (min pool.n_domains n) in
  (* A busy multi-domain pool also rejects a call that would run
     sequentially (one task), so nesting behaviour does not depend on
     the length of the inner list. *)
  if workers > 1 then begin
    if not (Atomic.compare_and_set pool.busy false true) then raise Nested_map
  end
  else if pool.n_domains > 1 && Atomic.get pool.busy then raise Nested_map;
  Fun.protect
    ~finally:(fun () -> if workers > 1 then Atomic.set pool.busy false)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let tasks, busy, idle = run ~workers ~n task in
      let wall = Unix.gettimeofday () -. t0 in
      if n > 0 then
        Mutex.protect pool.stats_lock (fun () ->
            pool.runs <- pool.runs + 1;
            pool.run_seconds <- pool.run_seconds +. wall;
            pool.idle <- Array.fold_left ( +. ) pool.idle idle;
            Array.iteri
              (fun w c -> pool.acc_tasks.(w) <- pool.acc_tasks.(w) + c)
              tasks;
            Array.iteri
              (fun w s -> pool.acc_busy.(w) <- pool.acc_busy.(w) +. s)
              busy));
  (* Merge by task index: re-raise the lowest-indexed failure (so the
     observed exception is independent of scheduling), else return the
     values in input order. *)
  Array.iter
    (function Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt | _ -> ())
    results;
  List.init n (fun i ->
      match results.(i) with Some (Ok v) -> v | Some (Error _) | None -> assert false)

let map_opt pool ~f xs =
  match pool with None -> List.map f xs | Some p -> map p ~f xs

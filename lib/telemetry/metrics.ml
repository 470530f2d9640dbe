(** A typed metrics registry.

    Three metric kinds — monotonically increasing counters, free-floating
    gauges, and integer {!Histogram}s — registered under a name plus an
    ordered label list ([("core", "0")], [("queue", "3")], ...).
    Registration is find-or-create on (name, labels), so re-registering
    returns the existing instrument instead of shadowing it.

    A registry snapshot serializes to JSON (one object per sample) and to
    CSV (one row per sample, histograms flattened to count/sum/min/max)
    for downstream tooling. *)

type labels = (string * string) list

type counter = { mutable c_value : int }
type gauge = { mutable g_value : float }

type value =
  | Counter of counter
  | Gauge of gauge
  | Histogram of Histogram.t

type sample = { name : string; labels : labels; value : value }

type t = {
  tbl : (string * labels, sample) Hashtbl.t;
  mutable order : (string * labels) list;  (** registration order, reversed *)
}

let create () = { tbl = Hashtbl.create 64; order = [] }

let register t name labels mk =
  let key = (name, labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some s -> s
  | None ->
    let s = { name; labels; value = mk () } in
    Hashtbl.replace t.tbl key s;
    t.order <- key :: t.order;
    s

let kind_mismatch name =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered with another kind" name)

let counter t ?(labels = []) name =
  match (register t name labels (fun () -> Counter { c_value = 0 })).value with
  | Counter c -> c
  | Gauge _ | Histogram _ -> kind_mismatch name

let gauge t ?(labels = []) name =
  match (register t name labels (fun () -> Gauge { g_value = 0. })).value with
  | Gauge g -> g
  | Counter _ | Histogram _ -> kind_mismatch name

let histogram t ?(labels = []) ~bounds name =
  match
    (register t name labels (fun () -> Histogram (Histogram.create ~bounds)))
      .value
  with
  | Histogram h -> h
  | Counter _ | Gauge _ -> kind_mismatch name

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters only increase";
  c.c_value <- c.c_value + by

let counter_value c = c.c_value
let set g v = g.g_value <- v
let gauge_value g = g.g_value

(** Samples in registration order. *)
let samples t =
  List.rev_map (fun key -> Hashtbl.find t.tbl key) t.order

let label_string labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)

(** CSV with a fixed header: name,labels,kind,value,count,sum,min,max.
    Counters and gauges fill [value]; histograms fill count/sum/min/max. *)
let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,labels,kind,value,count,sum,min,max\n";
  List.iter
    (fun s ->
      let labels = label_string s.labels in
      (match s.value with
      | Counter c ->
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,counter,%d,,,,\n" s.name labels c.c_value)
      | Gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,gauge,%g,,,,\n" s.name labels g.g_value)
      | Histogram h ->
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,histogram,,%d,%d,%s,%s\n" s.name labels
             (Histogram.count h) (Histogram.sum h)
             (match Histogram.min_value h with
             | Some v -> string_of_int v
             | None -> "")
             (match Histogram.max_value h with
             | Some v -> string_of_int v
             | None -> ""))))
    (samples t);
  Buffer.contents buf

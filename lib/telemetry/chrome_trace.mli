(** Chrome [trace_event] export ([chrome://tracing] / Perfetto).
    Timestamps and durations are in microseconds. *)

type event =
  | Complete of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : int;
      dur : int;
      args : (string * Json.t) list;
    }
  | Instant of {
      name : string;
      cat : string;
      pid : int;
      tid : int;
      ts : int;
      args : (string * Json.t) list;
    }
  | Counter of {
      name : string;
      pid : int;
      ts : int;
      values : (string * int) list;
    }
  | Process_name of { pid : int; name : string }
  | Thread_name of { pid : int; tid : int; name : string }
  | Thread_sort of { pid : int; tid : int; index : int }

(** The [{"traceEvents": [...]}] object format. *)
val to_string : event list -> string
val to_channel : out_channel -> event list -> unit

(** A direct-mapped cache model (tags only; data values live in the flat
    simulator memory, the cache decides latency). *)

type t = { line : int; sets : int; tags : int array; }

val create : bytes:int -> line:int -> span:int -> t
(** A cache of [bytes / line] sets, with tags for the sets below [span]
    bytes only: every address later passed to {!access} or
    {!invalidate} must lie in [\[0, span)]. *)

val access : t -> int -> bool
val invalidate : t -> int -> unit

(** Multi-core machine programs: per-core code with resolved labels, the
    queue table, and the shared-memory array layout. *)

type array_layout = {
  arr_name : string;
  arr_ty : Finepar_ir.Types.ty;
  arr_len : int;
  arr_base : int;
}
val no_fiber : int
(** Fiber id an instruction was generated from, or {!no_fiber} (-1) for
    runtime glue (constant pool, loop control, spawn/collect protocol). *)

type core_program = {
  code : Isa.instr array;
  label_pos : int array;
  n_regs : int;
  fiber_of : int array;
      (** provenance, same length as [code]: source fiber id per
          instruction, {!no_fiber} for runtime glue *)
}
type t = {
  cores : core_program array;
  queues : Isa.queue_spec array;
  arrays : array_layout array;
}
val array_id : t -> String.t -> int
val layout_arrays :
  line:int -> Finepar_ir.Kernel.array_decl list -> array_layout array
module Builder :
  sig
    type b = {
      mutable instrs : Isa.instr list;
      mutable fibers : int list;
      mutable cur_fiber : int;
      mutable count : int;
      mutable labels : (int * int) list;
      mutable next_label : int;
      mutable next_reg : int;
    }
    val create : unit -> b
    val emit : b -> Isa.instr -> unit

    (** Attribute subsequently emitted instructions to this fiber
        ({!no_fiber} resets to runtime glue). *)
    val set_fiber : b -> int -> unit

    val fresh_label : b -> int
    val place_label : b -> int -> unit
    val fresh_reg : b -> int
    val here : b -> int
    val finish : b -> core_program
  end

(** Largest fiber id appearing in any core's provenance, or {!no_fiber}
    when the program carries only glue. *)
val max_fiber : t -> int
val pp : Format.formatter -> t -> unit

(** Multi-core machine programs: per-core code with resolved labels, the
    queue table, and the shared-memory array layout. *)

open Finepar_ir

type array_layout = {
  arr_name : string;
  arr_ty : Types.ty;
  arr_len : int;
  arr_base : int;  (** byte address of element 0 *)
}

(** Fiber id an instruction was generated from, or {!no_fiber} for runtime
    glue (constant pool, loop control, spawn/collect protocol). *)
let no_fiber = -1

type core_program = {
  code : Isa.instr array;
  label_pos : int array;  (** label id -> instruction index *)
  n_regs : int;
  fiber_of : int array;
      (** provenance, same length as [code]: source fiber id per
          instruction, {!no_fiber} for runtime glue *)
}

type t = {
  cores : core_program array;
  queues : Isa.queue_spec array;
  arrays : array_layout array;  (** indexed by array id *)
}

let array_id t name =
  let rec go i =
    if i >= Array.length t.arrays then
      invalid_arg ("Program.array_id: unknown array " ^ name)
    else if String.equal t.arrays.(i).arr_name name then i
    else go (i + 1)
  in
  go 0

(** Lay arrays out contiguously, each aligned to a cache line. *)
let layout_arrays ~line (decls : Kernel.array_decl list) =
  let next = ref line in
  Array.of_list
    (List.map
       (fun (d : Kernel.array_decl) ->
         let base = !next in
         let bytes = d.Kernel.a_len * 8 in
         next := (base + bytes + line - 1) / line * line;
         {
           arr_name = d.Kernel.a_name;
           arr_ty = d.Kernel.a_ty;
           arr_len = d.Kernel.a_len;
           arr_base = base;
         })
       decls)

(** Mutable builder for one core's code. *)
module Builder = struct
  type b = {
    mutable instrs : Isa.instr list;  (** reversed *)
    mutable fibers : int list;  (** reversed, parallel to [instrs] *)
    mutable cur_fiber : int;
    mutable count : int;
    mutable labels : (int * int) list;  (** label id, position *)
    mutable next_label : int;
    mutable next_reg : int;
  }

  let create () =
    {
      instrs = [];
      fibers = [];
      cur_fiber = no_fiber;
      count = 0;
      labels = [];
      next_label = 0;
      next_reg = 0;
    }

  let emit b i =
    b.instrs <- i :: b.instrs;
    b.fibers <- b.cur_fiber :: b.fibers;
    b.count <- b.count + 1

  (** Attribute subsequently emitted instructions to fiber [f]
      ({!no_fiber} resets to runtime glue). *)
  let set_fiber b f = b.cur_fiber <- f

  let fresh_label b =
    let l = b.next_label in
    b.next_label <- l + 1;
    l

  let place_label b l = b.labels <- (l, b.count) :: b.labels

  let fresh_reg b =
    let r = b.next_reg in
    b.next_reg <- r + 1;
    r

  let here b = b.count

  let finish b =
    let label_pos = Array.make b.next_label (-1) in
    List.iter (fun (l, p) -> label_pos.(l) <- p) b.labels;
    Array.iteri
      (fun l p ->
        if p < 0 then
          invalid_arg (Printf.sprintf "Program.Builder: label %d unplaced" l))
      label_pos;
    {
      code = Array.of_list (List.rev b.instrs);
      label_pos;
      n_regs = max 1 b.next_reg;
      fiber_of = Array.of_list (List.rev b.fibers);
    }
end

(** Largest fiber id appearing in any core's provenance, or [no_fiber]
    when the program carries only glue. *)
let max_fiber t =
  Array.fold_left
    (fun acc c -> Array.fold_left max acc c.fiber_of)
    no_fiber t.cores

let pp_core ppf (c : core_program) =
  Array.iteri
    (fun i instr ->
      let labels_here =
        Array.to_seq c.label_pos |> Seq.mapi (fun l p -> (l, p))
        |> Seq.filter (fun (_, p) -> p = i)
        |> Seq.map fst |> List.of_seq
      in
      List.iter (fun l -> Fmt.pf ppf "L%d:@," l) labels_here;
      Fmt.pf ppf "  %3d: %a@," i Isa.pp_instr instr)
    c.code

let pp ppf t =
  Array.iteri
    (fun k c -> Fmt.pf ppf "@[<v>core %d:@,%a@]@," k pp_core c)
    t.cores

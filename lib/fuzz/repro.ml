(** Reproducer files: a failing (kernel, configuration) case as an
    s-expression that round-trips bit-exactly (floats are written as
    hexadecimal literals).  These files are the regression corpus under
    [test/fuzz_corpus/] and the artifact a nightly fuzz job uploads. *)

open Finepar_ir

type sexp = Atom of string | List of sexp list

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Generic s-expression reading and writing.

   Atoms that contain structural characters (whitespace, parens, quotes,
   backslashes, semicolons) or are empty are written as double-quoted
   strings with backslash escapes, so arbitrary text — error messages,
   verifier violations — survives the wire round-trip in
   {!Finepar_service.Wire}.  Plain atoms (identifiers, numbers, hex
   floats) print exactly as before, keeping the reproducer corpus
   byte-stable. *)

let atom_needs_quoting a =
  String.length a = 0
  || String.exists
       (function
         | '(' | ')' | '"' | '\\' | ';' | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
       a

let quote_atom a =
  let buf = Buffer.create (String.length a + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    a;
  Buffer.add_char buf '"';
  Buffer.contents buf

let atom_repr a = if atom_needs_quoting a then quote_atom a else a

let rec pp_sexp ppf = function
  | Atom a -> Fmt.string ppf (atom_repr a)
  | List l -> Fmt.pf ppf "@[<hv 1>(%a)@]" Fmt.(list ~sep:sp pp_sexp) l

(* Canonical single-line rendering: one space between siblings, no line
   breaks regardless of width.  Digest inputs and wire frames use this so
   the bytes never depend on a formatter margin. *)
let canon sexp =
  let buf = Buffer.create 256 in
  let rec go = function
    | Atom a -> Buffer.add_string buf (atom_repr a)
    | List l ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i s ->
          if i > 0 then Buffer.add_char buf ' ';
          go s)
        l;
      Buffer.add_char buf ')'
  in
  go sexp;
  Buffer.contents buf

type token = T_open | T_close | T_atom of string | T_end

let is_plain_char = function
  | '(' | ')' | '"' | ' ' | '\t' | '\n' | '\r' -> false
  | _ -> true

(* Far deeper than any generated kernel (19 levels at most on its own)
   or the registry and corpus batch frames (18), yet shallow enough
   that a hostile frame cannot make the parser's stack, and with it the
   cost of every minor collection, grow with the frame's size. *)
let max_depth = 1000

(* One pass: [next ()] lexes the token at [!pos] and the builder consumes
   tokens as they come.  A lexical error (an unterminated string, a bad
   escape) anywhere in the input outranks a structural one, so before a
   structural error is raised the rest of the input is lexed: any
   lexical error there is raised instead.  Plain atoms are slices of the
   input; quoted atoms are unescaped through a buffer. *)
let parse_sexp (s : string) : sexp =
  let n = String.length s in
  let pos = ref 0 and buf = Buffer.create 16 in
  let rec quoted i =
    if i >= n then parse_error "unterminated string literal"
    else
      match s.[i] with
      | '"' ->
        pos := i + 1;
        T_atom (Buffer.contents buf)
      | '\\' ->
        if i + 1 >= n then parse_error "unterminated escape in string";
        Buffer.add_char buf
          (match s.[i + 1] with
          | '"' -> '"'
          | '\\' -> '\\'
          | 'n' -> '\n'
          | 't' -> '\t'
          | 'r' -> '\r'
          | c -> parse_error "unknown escape '\\%c'" c);
        quoted (i + 2)
      | c ->
        Buffer.add_char buf c;
        quoted (i + 1)
  in
  let rec plain start i =
    if i < n && is_plain_char s.[i] then plain start (i + 1)
    else begin
      pos := i;
      T_atom (String.sub s start (i - start))
    end
  in
  let rec token i =
    if i >= n then T_end
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> token (i + 1)
      | '(' ->
        pos := i + 1;
        T_open
      | ')' ->
        pos := i + 1;
        T_close
      | '"' ->
        Buffer.clear buf;
        quoted (i + 1)
      | _ -> plain i (i + 1)
  in
  let next () = token !pos in
  let structural msg =
    let rec drain () = match next () with T_end -> () | _ -> drain () in
    drain ();
    parse_error "%s" msg
  in
  (* Each list's items accumulate tail-recursively, so only nesting depth
     uses stack, and [depth] (the number of enclosing lists) bounds it. *)
  let rec one depth = function
    | T_open ->
      if depth >= max_depth then
        structural (Printf.sprintf "nesting deeper than %d levels" max_depth)
      else items (depth + 1) []
    | T_close -> structural "unexpected ')'"
    | T_atom a -> Atom a
    | T_end -> structural "unexpected end of input"
  and items depth acc =
    match next () with
    | T_close -> List (List.rev acc)
    | T_end -> structural "unterminated '('"
    | tok -> items depth (one depth tok :: acc)
  in
  let sexp = one 0 (next ()) in
  match next () with
  | T_end -> sexp
  | T_open -> structural "trailing input at \"(\""
  | T_close -> structural "trailing input at \")\""
  | T_atom a -> structural (Printf.sprintf "trailing input at %S" a)

(* Field access within (key value ...) association lists.
   [field_items] yields all values after the key (used for body, arrays,
   live_out...); [field] requires exactly one. *)
let field_items name = function
  | List items -> (
    let found =
      List.find_map
        (function
          | List (Atom k :: vs) when String.equal k name -> Some vs
          | _ -> None)
        items
    in
    match found with
    | Some vs -> vs
    | None -> parse_error "missing field %S" name)
  | Atom a -> parse_error "expected a list around field %S, got %S" name a

let field name s =
  match field_items name s with
  | [ v ] -> v
  | _ -> parse_error "field %S expects a single value" name

(* Reject unknown and repeated fields in a record such as
   (machine (queue_len 2) ...): every keyed item must be one the parser
   consumes, and [field] reads only the first of a key.  Without this a
   misspelled, stale or doubled field in a hand-edited reproducer (or a
   config produced by a newer writer) would be silently dropped and the
   case would replay under a different configuration than the file
   says.  [extra] lists fields a wrapping parser layers on top (the
   service wire format appends [weights] to the reproducer config
   encoding). *)
let check_fields ~what ~known ?(extra = []) s =
  match s with
  | List (Atom _tag :: items) ->
    ignore
      (List.fold_left
         (fun seen -> function
           | List (Atom k :: _) ->
             if not (List.mem k known || List.mem k extra) then
               parse_error "unknown %s field %S (known fields: %s)" what k
                 (String.concat ", " (known @ extra));
             if List.mem k seen then
               parse_error "repeated %s field %S" what k;
             k :: seen
           | _ -> seen)
         [] items)
  | List _ | Atom _ -> parse_error "expected a (%s ...) record" what

(* A sub-record such as (machine (queue_len 2) ...): rebuilt with its
   tag so it can be fielded into recursively. *)
let section name s = List (Atom name :: field_items name s)

let atom = function
  | Atom a -> a
  | List _ -> parse_error "expected an atom"

let int_of = function
  | Atom a -> (
    match int_of_string_opt a with
    | Some i -> i
    | None -> parse_error "expected an integer, got %S" a)
  | List _ -> parse_error "expected an integer atom"

let bool_of s =
  match atom s with
  | "true" -> true
  | "false" -> false
  | a -> parse_error "expected a boolean, got %S" a

(* ------------------------------------------------------------------ *)
(* Values, expressions, statements.                                    *)

let float_atom f = Atom (Printf.sprintf "%h" f)

let sexp_of_value = function
  | Types.VInt i -> List [ Atom "i"; Atom (string_of_int i) ]
  | Types.VFloat f -> List [ Atom "f"; float_atom f ]

let value_of_sexp = function
  | List [ Atom "i"; v ] -> Types.VInt (int_of v)
  | List [ Atom "f"; Atom f ] -> (
    match float_of_string_opt f with
    | Some f -> Types.VFloat f
    | None -> parse_error "bad float literal %S" f)
  | _ -> parse_error "expected a value (i n) or (f x)"

let all_unops =
  [ Types.Neg; Not; Sqrt; Abs; Exp; Log; To_float; To_int ]

let all_binops =
  [
    Types.Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor; Shl; Shr; Lt; Le;
    Gt; Ge; Eq; Ne;
  ]

let unop_of_name n =
  List.find_opt (fun o -> String.equal (Types.unop_name o) n) all_unops

let binop_of_name n =
  List.find_opt (fun o -> String.equal (Types.binop_name o) n) all_binops

let rec sexp_of_expr = function
  | Expr.Const v -> List [ Atom "const"; sexp_of_value v ]
  | Expr.Var v -> List [ Atom "var"; Atom v ]
  | Expr.Load (a, i) -> List [ Atom "load"; Atom a; sexp_of_expr i ]
  | Expr.Unop (op, a) ->
    List [ Atom "unop"; Atom (Types.unop_name op); sexp_of_expr a ]
  | Expr.Binop (op, a, b) ->
    List
      [ Atom "binop"; Atom (Types.binop_name op); sexp_of_expr a; sexp_of_expr b ]
  | Expr.Select (c, t, f) ->
    List [ Atom "select"; sexp_of_expr c; sexp_of_expr t; sexp_of_expr f ]

let rec expr_of_sexp = function
  | List [ Atom "const"; v ] -> Expr.Const (value_of_sexp v)
  | List [ Atom "var"; Atom v ] -> Expr.Var v
  | List [ Atom "load"; Atom a; i ] -> Expr.Load (a, expr_of_sexp i)
  | List [ Atom "unop"; Atom op; a ] -> (
    match unop_of_name op with
    | Some op -> Expr.Unop (op, expr_of_sexp a)
    | None -> parse_error "unknown unop %S" op)
  | List [ Atom "binop"; Atom op; a; b ] -> (
    match binop_of_name op with
    | Some op -> Expr.Binop (op, expr_of_sexp a, expr_of_sexp b)
    | None -> parse_error "unknown binop %S" op)
  | List [ Atom "select"; c; t; f ] ->
    Expr.Select (expr_of_sexp c, expr_of_sexp t, expr_of_sexp f)
  | s -> parse_error "bad expression %a" pp_sexp s

let rec sexp_of_stmt = function
  | Stmt.Assign (v, e) -> List [ Atom "assign"; Atom v; sexp_of_expr e ]
  | Stmt.Store (a, i, e) ->
    List [ Atom "store"; Atom a; sexp_of_expr i; sexp_of_expr e ]
  | Stmt.If (c, t, f) ->
    List
      [
        Atom "if";
        sexp_of_expr c;
        List (List.map sexp_of_stmt t);
        List (List.map sexp_of_stmt f);
      ]

let rec stmt_of_sexp = function
  | List [ Atom "assign"; Atom v; e ] -> Stmt.Assign (v, expr_of_sexp e)
  | List [ Atom "store"; Atom a; i; e ] ->
    Stmt.Store (a, expr_of_sexp i, expr_of_sexp e)
  | List [ Atom "if"; c; List t; List f ] ->
    Stmt.If (expr_of_sexp c, List.map stmt_of_sexp t, List.map stmt_of_sexp f)
  | s -> parse_error "bad statement %a" pp_sexp s

(* ------------------------------------------------------------------ *)
(* Kernels.                                                            *)

let sexp_of_ty = function Types.I64 -> Atom "i64" | Types.F64 -> Atom "f64"

let ty_of_sexp s =
  match atom s with
  | "i64" -> Types.I64
  | "f64" -> Types.F64
  | t -> parse_error "unknown type %S" t

let sexp_of_kernel (k : Kernel.t) =
  List
    [
      Atom "kernel";
      List [ Atom "name"; Atom k.Kernel.name ];
      List [ Atom "index"; Atom k.Kernel.index ];
      List [ Atom "lo"; Atom (string_of_int k.Kernel.lo) ];
      List [ Atom "hi"; Atom (string_of_int k.Kernel.hi) ];
      List
        (Atom "arrays"
        :: List.map
             (fun (d : Kernel.array_decl) ->
               List
                 [
                   Atom d.Kernel.a_name;
                   sexp_of_ty d.Kernel.a_ty;
                   Atom (string_of_int d.Kernel.a_len);
                 ])
             k.Kernel.arrays);
      List
        (Atom "scalars"
        :: List.map
             (fun (d : Kernel.scalar_decl) ->
               List
                 [
                   Atom d.Kernel.s_name;
                   sexp_of_ty d.Kernel.s_ty;
                   sexp_of_value d.Kernel.s_init;
                 ])
             k.Kernel.scalars);
      List (Atom "body" :: List.map sexp_of_stmt k.Kernel.body);
      List (Atom "live_out" :: List.map (fun v -> Atom v) k.Kernel.live_out);
    ]

let kernel_of_sexp s =
  let arrays =
    List.map
      (function
        | List [ Atom a_name; ty; len ] ->
          { Kernel.a_name; a_ty = ty_of_sexp ty; a_len = int_of len }
        | _ -> parse_error "bad array declaration")
      (field_items "arrays" s)
  in
  let scalars =
    List.map
      (function
        | List [ Atom s_name; ty; init ] ->
          { Kernel.s_name; s_ty = ty_of_sexp ty; s_init = value_of_sexp init }
        | _ -> parse_error "bad scalar declaration")
      (field_items "scalars" s)
  in
  Kernel.validate
    {
      Kernel.name = atom (field "name" s);
      index = atom (field "index" s);
      lo = int_of (field "lo" s);
      hi = int_of (field "hi" s);
      arrays;
      scalars;
      body = List.map stmt_of_sexp (field_items "body" s);
      live_out = List.map atom (field_items "live_out" s);
    }

(* ------------------------------------------------------------------ *)
(* Configurations and whole cases.                                     *)

let sexp_of_machine (m : Finepar_machine.Config.t) =
  List
    [
      Atom "machine";
      List [ Atom "queue_len"; Atom (string_of_int m.Finepar_machine.Config.queue_len) ];
      List [ Atom "transfer_latency"; Atom (string_of_int m.Finepar_machine.Config.transfer_latency) ];
      List [ Atom "l1_bytes"; Atom (string_of_int m.Finepar_machine.Config.l1_bytes) ];
      List [ Atom "l1_line"; Atom (string_of_int m.Finepar_machine.Config.l1_line) ];
      List [ Atom "l2_bytes"; Atom (string_of_int m.Finepar_machine.Config.l2_bytes) ];
      List [ Atom "l1_hit"; Atom (string_of_int m.Finepar_machine.Config.l1_hit) ];
      List [ Atom "l2_hit"; Atom (string_of_int m.Finepar_machine.Config.l2_hit) ];
      List [ Atom "mem_latency"; Atom (string_of_int m.Finepar_machine.Config.mem_latency) ];
      List [ Atom "branch_taken_penalty"; Atom (string_of_int m.Finepar_machine.Config.branch_taken_penalty) ];
      List [ Atom "deq_latency"; Atom (string_of_int m.Finepar_machine.Config.deq_latency) ];
      List [ Atom "max_cycles"; Atom (string_of_int m.Finepar_machine.Config.max_cycles) ];
      List [ Atom "issue_width"; Atom (string_of_int m.Finepar_machine.Config.issue_width) ];
    ]

let machine_fields =
  [
    "queue_len"; "transfer_latency"; "l1_bytes"; "l1_line"; "l2_bytes";
    "l1_hit"; "l2_hit"; "mem_latency"; "branch_taken_penalty"; "deq_latency";
    "max_cycles"; "issue_width";
  ]

let machine_of_sexp s =
  check_fields ~what:"machine" ~known:machine_fields s;
  {
    Finepar_machine.Config.queue_len = int_of (field "queue_len" s);
    transfer_latency = int_of (field "transfer_latency" s);
    l1_bytes = int_of (field "l1_bytes" s);
    l1_line = int_of (field "l1_line" s);
    l2_bytes = int_of (field "l2_bytes" s);
    l1_hit = int_of (field "l1_hit" s);
    l2_hit = int_of (field "l2_hit" s);
    mem_latency = int_of (field "mem_latency" s);
    branch_taken_penalty = int_of (field "branch_taken_penalty" s);
    deq_latency = int_of (field "deq_latency" s);
    max_cycles = int_of (field "max_cycles" s);
    issue_width = int_of (field "issue_width" s);
  }

let sexp_of_config (c : Finepar.Compiler.config) =
  List
    [
      Atom "config";
      List [ Atom "cores"; Atom (string_of_int c.Finepar.Compiler.cores) ];
      List [ Atom "max_height"; Atom (string_of_int c.Finepar.Compiler.max_height) ];
      List
        [
          Atom "algorithm";
          Atom
            (match c.Finepar.Compiler.algorithm with
            | `Greedy -> "greedy"
            | `Multi_pair -> "multi_pair");
        ];
      List [ Atom "throughput"; Atom (string_of_bool c.Finepar.Compiler.throughput) ];
      List
        [
          Atom "max_queue_pairs";
          (match c.Finepar.Compiler.max_queue_pairs with
          | None -> Atom "none"
          | Some n -> Atom (string_of_int n));
        ];
      List [ Atom "speculation"; Atom (string_of_bool c.Finepar.Compiler.speculation) ];
      List
        [
          Atom "comm_mode";
          Atom (Finepar_transform.Comm.mode_name c.Finepar.Compiler.comm_mode);
        ];
      sexp_of_machine c.Finepar.Compiler.machine;
    ]

let config_fields =
  [
    "cores"; "max_height"; "algorithm"; "throughput"; "max_queue_pairs";
    "speculation"; "comm_mode"; "machine";
  ]

let config_of_sexp ?extra s =
  check_fields ~what:"config" ~known:config_fields ?extra s;
  let default =
    Finepar.Compiler.default_config ~cores:(int_of (field "cores" s)) ()
  in
  {
    default with
    Finepar.Compiler.max_height = int_of (field "max_height" s);
    algorithm =
      (match atom (field "algorithm" s) with
      | "greedy" -> `Greedy
      | "multi_pair" -> `Multi_pair
      | a -> parse_error "unknown algorithm %S" a);
    throughput = bool_of (field "throughput" s);
    max_queue_pairs =
      (match atom (field "max_queue_pairs" s) with
      | "none" -> None
      | n -> Some (int_of (Atom n)));
    speculation = bool_of (field "speculation" s);
    comm_mode =
      (let name = atom (field "comm_mode" s) in
       match Finepar_transform.Comm.mode_of_name name with
       | Some m -> m
       | None -> parse_error "unknown comm_mode %S" name);
    machine = machine_of_sexp (section "machine" s);
  }

let sexp_of_case (case : Gen.case) =
  List
    [
      Atom "case";
      sexp_of_kernel case.Gen.kernel;
      sexp_of_config case.Gen.config;
      List [ Atom "placement"; Atom (Gen.placement_name case.Gen.placement) ];
      List [ Atom "workload_seed"; Atom (string_of_int case.Gen.workload_seed) ];
    ]

let case_fields = [ "kernel"; "config"; "placement"; "workload_seed" ]

let case_of_sexp s =
  match s with
  | List (Atom "case" :: _) ->
    check_fields ~what:"case" ~known:case_fields s;
    {
      Gen.kernel = kernel_of_sexp (section "kernel" s);
      config = config_of_sexp (section "config" s);
      placement =
        (let name = atom (field "placement" s) in
         match Gen.placement_of_name name with
         | Some p -> p
         | None -> parse_error "unknown placement %S" name);
      workload_seed = int_of (field "workload_seed" s);
    }
  | _ -> parse_error "expected (case ...)"

(* ------------------------------------------------------------------ *)
(* Whole-file interface.                                               *)

let to_string ?(failure : Oracle.failure option) (case : Gen.case) =
  let header =
    match failure with
    | None -> ""
    | Some f ->
      Printf.sprintf "; oracle: %s\n; %s\n"
        f.Oracle.oracle
        (String.map (fun c -> if c = '\n' then ' ' else c) f.Oracle.message)
  in
  header ^ Format.asprintf "%a@." pp_sexp (sexp_of_case case)

let strip_comments s =
  String.split_on_char '\n' s
  |> List.filter (fun line ->
         let line = String.trim line in
         not (String.length line > 0 && line.[0] = ';'))
  |> String.concat "\n"

let of_string s = case_of_sexp (parse_sexp (strip_comments s))

let save path ?failure case =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?failure case))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

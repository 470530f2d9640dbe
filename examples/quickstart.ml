(* Quickstart: write a small loop in the kernel DSL, compile it for two
   cores, inspect every stage, and check the simulated result against the
   reference evaluator.

   The kernel is the paper's introductory example (Fig. 1): a handful of
   multiplies and adds over shared arrays, with enough independence that
   two cores can split the work, plus the Fig. 4 expression
   (p2 % 7) + a[i] * (p1 % 13) to show fiber partitioning.

   Run with: dune exec examples/quickstart.exe *)

open Finepar_ir
open Builder

let n = 64

(* x = a*b; y = c*d; z = x + y + e  — the Fig. 1 flavour, plus the Fig. 4
   expression tree as a second statement. *)
let kernel =
  Builder.kernel ~name:"quickstart" ~index:"i" ~lo:0 ~hi:n
    ~arrays:
      [
        farr "a" n; farr "b" n; farr "c" n; farr "d" n; farr "e" n;
        farr "z_out" n; iarr "p1" n; iarr "p2" n; iarr "q_out" n;
      ]
    ~scalars:[]
    [
      set "x" (ld "a" (v "i") *: ld "b" (v "i"));
      set "y" (ld "c" (v "i") *: ld "d" (v "i"));
      store "z_out" (v "i") (v "x" +: v "y" +: ld "e" (v "i"));
      (* Fig. 4: (p2 % 7) + a[...] * (p1 % 13), on the integer side. *)
      store "q_out" (v "i")
        ((ld "p2" (v "i") %: i 7)
        +: (ld "p1" (v "i") %: i 13) *: ld "p1" (v "i"));
    ]

let () =
  Fmt.pr "=== the kernel =============================================@.";
  Fmt.pr "%a@.@." Kernel.pp kernel;

  Fmt.pr "=== flattened, predicated region ===========================@.";
  let region = Region.of_kernel kernel in
  Fmt.pr "%a@.@." Region.pp region;

  Fmt.pr "=== after fiber partitioning (Section III-A) ===============@.";
  let fibers, stats = Finepar_fiber.Fiber.split region in
  Fmt.pr "%a@." Region.pp fibers;
  Fmt.pr "(%d statements became %d fibers)@.@." stats.Finepar_fiber.Fiber.statements_in
    stats.Finepar_fiber.Fiber.initial_fibers;

  Fmt.pr "=== partition onto 2 cores (Section III-B) =================@.";
  let config = Finepar.Compiler.default_config ~cores:2 () in
  let c = Finepar.Compiler.compile config kernel in
  List.iter
    (fun (s : Region.sstmt) ->
      Fmt.pr "core %d | %a@." c.Finepar.Compiler.cluster_of.(s.Region.id)
        Region.pp_sstmt s)
    c.Finepar.Compiler.region.Region.stmts;
  Fmt.pr "@.";

  Fmt.pr "=== run on the simulator ===================================@.";
  let workload = Finepar_kernels.Workload.default kernel in
  let seq, par, s =
    Finepar.Job.speedup
      (Finepar.Job.direct ~engine:Finepar_machine.Engine.default ())
      (Finepar.Job.make ~workload ~cores:2 kernel)
  in
  Fmt.pr "sequential: %d cycles@." seq;
  Fmt.pr "2 cores:    %d cycles  (speedup %.2f)@." par s;
  Fmt.pr "outputs verified bit-exact against the reference evaluator.@."

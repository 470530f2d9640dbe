(* Control-flow speculation (Section III-H / Fig. 10).

   The recurring pattern the paper targets:

       if (CND) { ptrVar = Func2(...); } else { ptrVar = Func3(...); }

   where both arms are independent and side-effect free.  The rollback-free
   transformation executes both arms ahead of the condition and commits
   with a select, so neither arm waits for the (possibly remote) condition
   value.

   Run with: dune exec examples/speculation_demo.exe *)

open Finepar_ir
open Builder

let n = 128

(* cnd comes from a long dependence chain; each arm is a moderately
   expensive, pure function of independent inputs — exactly the situation
   where executing the arms ahead of the condition pays off. *)
let kernel =
  Builder.kernel ~name:"spec-demo" ~index:"i" ~lo:0 ~hi:n
    ~arrays:[ farr "a" n; farr "b" n; farr "c" n; farr "out" n ]
    ~scalars:[ fscalar ~init:0.8 "thr" ]
    [
      set "chain1" (ld "a" (v "i") *: ld "b" (v "i"));
      set "chain2" (sqrt_ (v "chain1" +: f 1.0));
      set "chain3" (v "chain2" /: (v "chain1" +: f 0.5));
      set "cnd" (v "chain3" >: v "thr");
      if_ (v "cnd")
        [ set "r" (sqrt_ (ld "b" (v "i") *: f 2.0) +: ld "c" (v "i")) ]
        [ set "r" ((ld "c" (v "i") /: (ld "b" (v "i") +: f 1.0)) *: f 3.0) ];
      store "out" (v "i") (v "r");
    ]

let () =
  Fmt.pr "=== original kernel ========================================@.";
  Fmt.pr "%a@.@." Kernel.pp kernel;

  let speculated, count = Finepar_transform.Speculate.apply kernel in
  Fmt.pr "=== after control-flow speculation (%d conditional) ========@." count;
  Fmt.pr "%a@.@." Kernel.pp speculated;

  let workload = Finepar_kernels.Workload.default kernel in
  let run speculation =
    let config =
      { (Finepar.Compiler.default_config ~cores:4 ()) with
        Finepar.Compiler.speculation }
    in
    Finepar.Job.speedup
      (Finepar.Job.direct ~engine:Finepar_machine.Engine.default ())
      (Finepar.Job.make ~config ~workload ~cores:4 kernel)
  in
  let _, par_base, s_base = run false in
  let _, par_spec, s_spec = run true in
  Fmt.pr "=== effect on 4 cores ======================================@.";
  Fmt.pr "without speculation: %6d cycles  (speedup %.2f)@."
    par_base s_base;
  Fmt.pr "with speculation:    %6d cycles  (speedup %.2f)@."
    par_spec s_spec;
  Fmt.pr
    "both versions produce bit-identical results: the speculation is@.\
     rollback-free by construction (both arms are pure), so every@.\
     enqueue still pairs statically with a dequeue.@."

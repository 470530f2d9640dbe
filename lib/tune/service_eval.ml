(* Service-backed evaluation.  See the .mli. *)

module Wire = Finepar_service.Wire

type exec = Wire.request list -> Wire.response list

let evaluator ~exec ~engine : Finepar.Job.evaluator =
 fun jobs ->
  List.map
    (function
      | Wire.Run_result p -> Ok (p.Wire.cycles, p.Wire.load_counters)
      | Wire.Error msg -> Error msg
      | _ -> Error "service: unexpected response kind")
    (exec (List.map (fun job -> Wire.Run { job; engine }) jobs))

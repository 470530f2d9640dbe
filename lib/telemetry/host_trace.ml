(* Host-trace export.  See the .mli. *)

let write file f =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc);
  Fmt.epr "wrote %s@." file

let emit_profile tracer dest =
  let tree = Profile_tree.of_spans (Tracer.spans tracer) in
  if String.equal dest "-" then Fmt.pr "@[%a@]@." Profile_tree.pp tree
  else
    write dest (fun oc ->
        Json.to_channel oc (Profile_tree.to_json tree);
        output_char oc '\n')

let with_tracing ~trace_out ~profile f =
  match (trace_out, profile) with
  | None, None -> f ()
  | _ ->
    let tracer = Tracer.create () in
    Tracer.install tracer;
    let exported = ref false in
    let export () =
      if not !exported then begin
        exported := true;
        Tracer.uninstall ();
        Option.iter
          (fun file ->
            write file (fun oc ->
                Chrome_trace.to_channel oc (Tracer.to_chrome tracer)))
          trace_out;
        Option.iter (emit_profile tracer) profile
      end
    in
    at_exit export;
    Fun.protect ~finally:export f

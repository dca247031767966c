(* The repository benchmark:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (tenant_mix, hot_translate or edit_stream) on
   inputs made from the seed, checks every output (translations against
   the Demand-evaluation oracle, check jobs against the pass count the
   corpus generator declared), and prints the result as one JSON line: the
   end-to-end metrics with --trace 0, the per-layer metrics of a traced
   replay with --trace 1. *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME tenant_mix | hot_translate | edit_stream");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "tenant_mix" -> Tenant.run
    | "hot_translate" -> Hot.run
    | "edit_stream" -> Edit.run
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed N >= 0, --seconds S > 0 and --trace 0|1";
    exit 2
  end;
  let dir = Util.fresh_work_dir () in
  let report =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf dir)
      (fun () -> run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~dir)
  in
  Util.print_report ~workload:!workload report

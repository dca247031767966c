(* The corpus subsystem: seeded generation of always-evaluable grammars
   at scale, input fleets, and multi-tenant jobfiles.

   The load-bearing properties, in rough order: determinism (a seed
   names an exact corpus, byte for byte — the committed bench baseline
   depends on it), evaluability-by-construction (every generated
   grammar passes the real front end with the pass count its config
   asked for, and conflict-free LALR tables), sentence validity (the
   fleet parses under the grammar's own tables), and the engine/oracle
   differential extended from hand-written languages to generated
   tenants. *)

open Lg_corpus

let small = Corpus_gen.config_of_profile Corpus_gen.Small
let medium = Corpus_gen.config_of_profile Corpus_gen.Medium

(* ---------- determinism ---------- *)

let test_generate_deterministic () =
  List.iter
    (fun seed ->
      let g1 = Corpus_gen.generate ~name:"det" medium ~seed in
      let g2 = Corpus_gen.generate ~name:"det" medium ~seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d stable" seed)
        g1.Corpus_gen.g_source g2.Corpus_gen.g_source)
    [ 1; 2; 42 ];
  let g1 = Corpus_gen.generate ~name:"det" medium ~seed:1 in
  let g2 = Corpus_gen.generate ~name:"det" medium ~seed:2 in
  Alcotest.(check bool)
    "different seeds differ" true
    (not (String.equal g1.Corpus_gen.g_source g2.Corpus_gen.g_source))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let temp_dir tag =
  let dir = Filename.temp_file ("lg-corpus-" ^ tag) "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let small_spec =
  {
    Emit.s_seed = 7;
    s_grammars = 4;
    s_profile = Corpus_gen.Small;
    s_inputs = 3;
    s_input_size = 25;
    s_fault_every = 5;
  }

let rec walk dir rel =
  List.concat_map
    (fun f ->
      let abs = Filename.concat dir f
      and r = if rel = "" then f else Filename.concat rel f in
      if Sys.is_directory abs then walk abs r else [ r ])
    (Array.to_list (Sys.readdir dir))

let test_write_deterministic () =
  let d1 = temp_dir "det1" and d2 = temp_dir "det2" in
  Fun.protect ~finally:(fun () -> rm_rf d1; rm_rf d2) @@ fun () ->
  let _ = Emit.write ~dir:d1 small_spec in
  let _ = Emit.write ~dir:d2 small_spec in
  let files1 = List.sort compare (walk d1 "") in
  let files2 = List.sort compare (walk d2 "") in
  Alcotest.(check (list string)) "same layout" files1 files2;
  Alcotest.(check bool) "layout nonempty" true (List.length files1 > 10);
  List.iter
    (fun f ->
      Alcotest.(check string)
        (f ^ " byte-identical")
        (read_file (Filename.concat d1 f))
        (read_file (Filename.concat d2 f)))
    files1

(* ---------- evaluable by construction ---------- *)

let check_profile name config seed =
  let g = Corpus_gen.generate ~name config ~seed in
  match Corpus_gen.build g with
  | Error msg -> Alcotest.failf "%s seed %d rejected:\n%s" name seed msg
  | Ok b ->
      let d = Corpus_gen.describe ~lalr:true b in
      Alcotest.(check int)
        (Printf.sprintf "%s seed %d: passes pinned" name seed)
        config.Corpus_gen.passes d.Corpus_gen.d_passes;
      Alcotest.(check (option int))
        (Printf.sprintf "%s seed %d: conflict-free" name seed)
        (Some 0) d.Corpus_gen.d_lalr_conflicts;
      b

let test_small_seeds_evaluable () =
  List.iter
    (fun seed -> ignore (check_profile "small" small seed))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_medium_seeds_evaluable () =
  List.iter
    (fun seed -> ignore (check_profile "medium" medium seed))
    [ 1; 2; 3 ]

let test_profile_variations_evaluable () =
  (* the emitter's per-grammar shape variation must stay inside the
     always-evaluable envelope too *)
  List.iteri
    (fun i base ->
      List.iter
        (fun idx -> ignore (check_profile "varied" (Emit.vary base idx) (i + 1)))
        [ 0; 1; 2; 3; 4; 5 ])
    [ small; medium ]

let test_xl_scale () =
  let config = Corpus_gen.config_of_profile Corpus_gen.Xl in
  let g = Corpus_gen.generate ~name:"xl" config ~seed:1 in
  match Corpus_gen.build g with
  | Error msg -> Alcotest.failf "xl rejected:\n%s" msg
  | Ok b ->
      (* order of magnitude past linguist.ag: no LALR here (that is the
         expensive part at this size); structure counters only *)
      let d = Corpus_gen.describe b in
      Alcotest.(check bool)
        (Printf.sprintf "symbols %d >= 1500" d.Corpus_gen.d_symbols)
        true
        (d.Corpus_gen.d_symbols >= 1500);
      Alcotest.(check bool)
        (Printf.sprintf "productions %d >= 700" d.Corpus_gen.d_productions)
        true
        (d.Corpus_gen.d_productions >= 700);
      Alcotest.(check int) "passes pinned at scale" config.Corpus_gen.passes
        d.Corpus_gen.d_passes

(* ---------- sentences parse under the grammar's own tables ---------- *)

let test_sentences_accepted =
  QCheck.Test.make ~count:40 ~name:"corpus sentences accepted by own tables"
    QCheck.(pair (int_range 1 8) (int_range 1 1000))
    (fun (gseed, sseed) ->
      let b = Corpus_gen.build_exn (Corpus_gen.generate ~name:"qc" small ~seed:gseed) in
      let tables = Lg_lalr.Tables.build b.Corpus_gen.b_cfg in
      let toks = Corpus_gen.sentence_tokens b ~seed:sseed ~size:(10 + (sseed mod 50)) in
      Lg_lalr.Driver.accepts tables toks)

(* ---------- engine = demand oracle on generated tenants ---------- *)

let test_engine_equals_oracle () =
  List.iter
    (fun seed ->
      let g = Corpus_gen.generate ~name:"diff" small ~seed in
      let t =
        match
          Linguist.Translator.of_source ~ag_source:g.Corpus_gen.g_source
            ~file:"diff.ag" ()
        with
        | Ok t -> t
        | Error diag ->
            Alcotest.failf "translator build failed:\n%a" Lg_support.Diag.pp_all
              diag
      in
      let b = Corpus_gen.build_exn g in
      for s = 0 to 4 do
        let input = Corpus_gen.sentence b ~seed:(100 + s) ~size:30 in
        let tr =
          Linguist.Translator.translate_exn t ~file:"input.txt" input
        in
        let diag = Lg_support.Diag.create () in
        let tree =
          match
            Linguist.Translator.tree_of_source t ~file:"input.txt" ~diag input
          with
          | Some tree -> tree
          | None -> Alcotest.fail "tree_of_source failed on generated sentence"
        in
        let oracle = Linguist.Demand.evaluate (Linguist.Translator.ir t) tree in
        List.iter
          (fun (name, v) ->
            let ov = List.assoc name oracle.Linguist.Demand.outputs in
            if not (Lg_support.Value.equal v ov) then
              Alcotest.failf "seed %d input %d: %s: engine %s oracle %s" seed s
                name (Lg_support.Value.to_string v)
                (Lg_support.Value.to_string ov))
          tr.Linguist.Translator.outputs;
        Alcotest.(check int)
          "same output count"
          (List.length oracle.Linguist.Demand.outputs)
          (List.length tr.Linguist.Translator.outputs)
      done)
    [ 1; 2; 3 ]

(* ---------- the emitted jobfile round-trips and runs ---------- *)

let in_dir dir f =
  let old = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect ~finally:(fun () -> Sys.chdir old) f

let test_jobfile_roundtrip () =
  let jobs = Emit.jobs small_spec in
  match Lg_server.Jobfile.parse (Lg_server.Jobfile.to_string jobs) with
  | Error msg -> Alcotest.failf "emitted jobfile does not re-read: %s" msg
  | Ok parsed ->
      Alcotest.(check int) "all jobs survive" (List.length jobs)
        (List.length parsed);
      let ops =
        List.filter_map
          (fun (j : Lg_server.Jobfile.job) ->
            match j.Lg_server.Jobfile.j_op with
            | Lg_server.Jobfile.Translate (Lg_server.Jobfile.Grammar _) ->
                Some `T
            | Lg_server.Jobfile.Update (Lg_server.Jobfile.Grammar _) -> Some `U
            | _ -> None)
          parsed
      in
      Alcotest.(check bool) "has grammar-tenant translates" true
        (List.mem `T ops);
      Alcotest.(check bool) "has grammar-tenant updates" true (List.mem `U ops);
      Alcotest.(check bool) "has fault specs" true
        (List.exists
           (fun (j : Lg_server.Jobfile.job) ->
             j.Lg_server.Jobfile.j_faults <> None)
           parsed)

let test_corpus_batch_runs () =
  let dir = temp_dir "run" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let corpus = Emit.write ~dir small_spec in
  in_dir dir @@ fun () ->
  let summary = Lg_server.Batch.run ~workers:0 corpus.Emit.c_jobs in
  Alcotest.(check int) "no failed jobs" 0 summary.Lg_server.Batch.n_failed;
  Alcotest.(check int) "all jobs ran"
    (List.length corpus.Emit.c_jobs)
    (List.length summary.Lg_server.Batch.outcomes)

let () =
  Alcotest.run "corpus"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same text" `Quick
            test_generate_deterministic;
          Alcotest.test_case "written corpora byte-identical" `Quick
            test_write_deterministic;
        ] );
      ( "evaluable by construction",
        [
          Alcotest.test_case "small seeds" `Quick test_small_seeds_evaluable;
          Alcotest.test_case "medium seeds" `Quick test_medium_seeds_evaluable;
          Alcotest.test_case "emitter variations" `Quick
            test_profile_variations_evaluable;
          Alcotest.test_case "xl scale targets" `Quick test_xl_scale;
        ] );
      ( "sentences",
        [ QCheck_alcotest.to_alcotest test_sentences_accepted ] );
      ( "differential",
        [
          Alcotest.test_case "engine = demand oracle" `Quick
            test_engine_equals_oracle;
        ] );
      ( "workload",
        [
          Alcotest.test_case "jobfile round-trip" `Quick test_jobfile_roundtrip;
          Alcotest.test_case "sequential batch all-ok" `Quick
            test_corpus_batch_runs;
        ] );
    ]

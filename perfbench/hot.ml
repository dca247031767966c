(* hot_translate: a single-thread closed loop of Batch.run_job calls
   against a warm session cache. Every lookup hits and there is no pool
   and no socket, so the time goes to scanning and parsing, the
   evaluator and the APT stores: evaluator and store work shows here,
   while cache, pool and transport changes should not move it. *)

module Jobfile = Lg_server.Jobfile
module Session = Lg_server.Session
module Batch = Lg_server.Batch

let languages = [ "pascal"; "linguist"; "desk_calc" ]
let ladder = 8  (* input sizes per language *)
let setup_reps = 21
let replay_jobs = 24

(* Sizes on a geometric ladder between [lo] and [hi], each jittered by
   the seed: the seed changes every input while the mix of job costs,
   and so the run's figures, stays put. *)
let sizes st ~lo ~hi =
  List.init ladder (fun k ->
      let x = float_of_int lo *. ((float_of_int hi /. float_of_int lo) ** (float_of_int k /. float_of_int (ladder - 1))) in
      int_of_float (x *. (0.97 +. Random.State.float st 0.06)))

let source lang n =
  match lang with
  | "pascal" -> Inputs.synthetic_pascal n
  | "linguist" -> Inputs.synthetic_ag n
  | _ -> Inputs.synthetic_calc n

let range = function
  | "pascal" -> (300, 1000)
  | "linguist" -> (30, 150)
  | _ -> (500, 3000)

type job = { job : Jobfile.job; lang : string }

(* The job cycle: every input once on the mem store and once on the
   paged store, alternating mem and paged. *)
let make_inputs ~seed =
  let st = Util.rng ~seed "hot_translate" in
  let inputs =
    List.concat_map
      (fun lang ->
        let lo, hi = range lang in
        List.mapi
          (fun k n -> (lang, Printf.sprintf "%s-%d" lang k, source lang n))
          (sizes st ~lo ~hi))
      languages
    |> Array.of_list
  in
  let mk store (lang, file, text) =
    {
      job =
        Jobfile.make ~id:(file ^ "-" ^ store) ~source:text ~store
          ~op:(Jobfile.Translate (Jobfile.Language lang)) ~file ();
      lang;
    }
  in
  let mem = Util.shuffle st inputs and paged = Util.shuffle st inputs in
  Array.init (2 * Array.length inputs) (fun i ->
      if i mod 2 = 0 then mk "mem" mem.(i / 2) else mk "paged" paged.(i / 2))

(* Demand evaluation with the translator that served the job: NAME
   values are indices into that translator's name table, and re-parsing
   a text it has already seen interns nothing new. Each distinct input
   is evaluated once. *)
let oracle sessions =
  let memo = Hashtbl.create 32 in
  fun j ->
    let file = j.job.Jobfile.j_file in
    match Hashtbl.find_opt memo file with
    | Some o -> o
    | None ->
        let translator = Replay.translator_of (Session.language_session sessions j.lang) in
        let o = Util.oracle translator ~file (Option.get j.job.Jobfile.j_source) in
        Hashtbl.add memo file o;
        o

let outcome_ok expect j (o : Batch.outcome) =
  o.Batch.o_ok && Util.payload_outputs o.Batch.o_payload = Some (expect j)

let warm_cache () =
  let c = Session.create_cache () in
  List.iter (fun l -> ignore (Session.language_session c l)) languages;
  c

let replay_pass cycle outcomes (ctx : Replay.ctx) =
  let ok = ref true in
  for i = 0 to replay_jobs - 1 do
    let j = cycle.(i) in
    let rendered =
      Replay.job ctx (fun () ->
          let translator =
            Replay.session ctx (fun () ->
                Session.language_session ctx.Replay.cache j.lang)
          in
          Replay.payload ctx outcomes.(i)
            (Replay.translate ctx translator ~store:j.job.Jobfile.j_store
               ~file:j.job.Jobfile.j_file (Option.get j.job.Jobfile.j_source)))
    in
    if Some rendered <> Util.payload_outputs outcomes.(i).Batch.o_payload then ok := false
  done;
  !ok

let run ~seed ~seconds ~trace ~dir =
  let cycle = make_inputs ~seed in
  let n_cycle = Array.length cycle in
  let setups = ref [] and cache = ref None in
  for _ = 1 to setup_reps do
    let c, dt = Util.timed warm_cache in
    setups := dt :: !setups;
    cache := Some c
  done;
  let sessions = Option.get !cache in
  let job i =
    let j = cycle.(i mod n_cycle) in
    let o, dt = Util.timed (fun () -> Batch.run_job ~sessions j.job) in
    (j, o, Util.now (), dt)
  in
  (* one untimed pass over the cycle, so that the heap has grown to its
     working size before timing starts *)
  let warm = List.init n_cycle job in
  let start = Util.now () in
  let until = start +. seconds in
  let rec loop i acc = if Util.now () >= until then acc else loop (i + 1) (job i :: acc) in
  let results = loop 0 [] in
  let n = List.length results in
  let e2e =
    Workload.end_to_end ~setups:!setups ~start
      ~jobs:(List.map (fun (_, _, t, dt) -> (t, dt)) results)
  in
  let expect = oracle sessions in
  let failed =
    List.length (List.filter (fun (j, o, _, _) -> not (outcome_ok expect j o)) results)
  in
  let warm_ok = List.for_all (fun (j, o, _, _) -> outcome_ok expect j o) warm in
  let notes =
    [
      ( "store_mix",
        let mem = List.filter (fun (j, _, _, _) -> j.job.Jobfile.j_store = "mem") results in
        let share = float_of_int (List.length mem) /. float_of_int (max 1 n) in
        Printf.sprintf "mem %.3f, paged %.3f of jobs" share (1.0 -. share) );
      ("cycle", Printf.sprintf "%d jobs, %d passes over it" n_cycle (n / n_cycle));
    ]
  in
  let layers, replay_ok =
    if not trace then ([], true)
    else
      Workload.traced_replay ~dir ~name:"hot_translate" ~seed
        ~cache:(fun () -> Session.create_cache ())
        ~prepare:(fun c -> List.iter (fun l -> ignore (Session.language_session c l)) languages)
        ~jobs:(Array.init replay_jobs (fun i -> cycle.(i).job))
        ~valid:(fun c ->
          let expect = oracle c in
          fun i o -> outcome_ok expect cycle.(i) o)
        ~setup:(fun ctx ->
          (* each pass warms a fresh cache: these builds are the set-up
             the driver, lalr and scanner metrics speak for *)
          Replay.setup ctx (fun () ->
              List.iter
                (fun l ->
                  ignore
                    (Replay.session ctx (fun () ->
                         Session.language_session ctx.Replay.cache l)))
                languages))
        ~pass:(replay_pass cycle) ()
  in
  Workload.report ~trace ~attempted:n ~failed
    ~correct:(warm_ok && failed = 0 && replay_ok) ~e2e ~layers ~notes

(* tenant_mix: Zipf-distributed traffic from many generated grammar
   tenants against an in-process serve with the default 8-slot session
   cache. Head tenants repeat and stay resident; tail tenants arrive
   cold and pay a session build (AG driver, LALR tables, scanner), so
   the session, driver, lalr and scanner layers and the serving path
   dominate. *)

module Corpus = Lg_corpus.Corpus_gen
module Jobfile = Lg_server.Jobfile
module Session = Lg_server.Session
module Batch = Lg_server.Batch
module Json = Lg_support.Json_out

let tenants = 32  (* four times the serve's default session capacity *)
let capacity = 8
let zipf_exponent = 1.0
let inputs_per_tenant = 3
let check_percent = 15
let warmup = 200  (* untimed prefix that brings the cache to steady state *)
let replay_jobs = 1000  (* the warm-up prefix and the next 800 jobs *)
let setup_reps = 5
let candidates = 7

type expect = Outputs of (string * string) list | Passes of int

type job = {
  job : Jobfile.job;
  request : Json.t;
  expect : expect Lazy.t;  (** forced after the timed run *)
  grammar : string;  (** path of the tenant's grammar file *)
}

type inputs = {
  jobs : job array;
  sequence : int -> int;  (** position -> index into [jobs] *)
}

(* Every third tenant, from the second most popular on, is medium and
   the rest small. Medium jobs that build or check cost several times a
   small one and make up more than a tenth of all jobs, so latency_p90_ms
   falls inside their mode rather than on its edge. *)
let profile r = if r mod 3 = 1 then Corpus.Medium else Corpus.Small

let make_inputs ~dir ~seed =
  let jobs =
    Array.init tenants (fun r ->
        let name = Printf.sprintf "t%02d" r in
        (* the median-size grammar of a few seeded candidates: the seed
           changes every grammar while the run's mix of build and check
           costs, which scale with grammar size, stays put *)
        let g =
          List.init candidates (fun c ->
              Corpus.generate ~name (Corpus.config_of_profile (profile r))
                ~seed:((((seed * 1009) + r) * candidates) + c))
          |> List.sort (fun a b ->
                 compare (String.length a.Corpus.g_source) (String.length b.Corpus.g_source))
          |> fun gs -> List.nth gs (candidates / 2)
        in
        let path = Filename.concat dir (name ^ ".ag") in
        Util.write_file path g.Corpus.g_source;
        let built = Corpus.build_exn g in
        let translator =
          lazy
            (match
               Linguist.Translator.of_source ~ag_source:g.Corpus.g_source ~file:path ()
             with
            | Ok t -> t
            | Error _ -> failwith ("tenant grammar rejected: " ^ name))
        in
        let mk k =
          if k = inputs_per_tenant then
            Jobfile.make ~id:(name ^ "-check") ~source:g.Corpus.g_source
              ~op:Jobfile.Check ~file:(name ^ ".ag") ()
          else
            let text =
              Corpus.sentence built ~seed:((seed * 7919) + (r * 31) + k)
                ~size:(10 + (20 * k))
            in
            Jobfile.make
              ~id:(Printf.sprintf "%s-%d" name k)
              ~source:text
              ~op:(Jobfile.Translate (Jobfile.Grammar path))
              ~file:(Printf.sprintf "%s-in%d.txt" name k)
              ()
        in
        Array.init (inputs_per_tenant + 1) (fun k ->
            let job = mk k in
            let expect =
              match job.Jobfile.j_op with
              | Jobfile.Check -> Lazy.from_val (Passes g.Corpus.g_config.Corpus.passes)
              | _ ->
                  lazy
                    (Outputs
                       (Util.oracle (Lazy.force translator) ~file:job.Jobfile.j_file
                          (Option.get job.Jobfile.j_source)))
            in
            {
              job;
              request =
                Json.Obj [ ("op", Json.Str "job"); ("job", Jobfile.job_to_json job) ];
              expect;
              grammar = path;
            }))
  in
  let jobs = Array.concat (Array.to_list jobs) in
  let weights =
    Array.init tenants (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_exponent))
  in
  let total = Array.fold_left ( +. ) 0.0 weights in
  (* each position draws from a generator of its own, so the sequence
     needs no storage however long a run gets *)
  let sequence i =
    let st = Random.State.make [| seed; i |] in
    let u = Random.State.float st total in
    let rec pick r acc =
      let acc = acc +. weights.(r) in
      if u < acc || r = tenants - 1 then r else pick (r + 1) acc
    in
    let r = pick 0 0.0 in
    let k =
      if Random.State.int st 100 < check_percent then inputs_per_tenant
      else Random.State.int st inputs_per_tenant
    in
    (r * (inputs_per_tenant + 1)) + k
  in
  { jobs; sequence }

let matches expect payload =
  match expect with
  | Outputs o -> Util.payload_outputs payload = Some o
  | Passes n -> (
      match Json.member "passes" payload with
      | Some (Json.Num p) -> int_of_float p = n
      | _ -> false)

(* A response's payload: all a check needs of it. *)
let keep r = Json.member "payload" r

let sample_ok inputs (x : Json.t option Served.sample) =
  match x.Served.answer with
  | Some (Some p) -> matches (Lazy.force inputs.jobs.(inputs.sequence x.Served.index).expect) p
  | _ -> false

(* ---- the traced replay ---- *)

let replay_pass inputs outcomes (ctx : Replay.ctx) =
  let ok = ref true in
  for i = 0 to replay_jobs - 1 do
    let j = inputs.jobs.(inputs.sequence i) in
    let answer =
      Replay.job ctx (fun () ->
          let job = Replay.codec ctx j.job in
          let source = Option.get job.Jobfile.j_source in
          match job.Jobfile.j_op with
          | Jobfile.Check ->
              let passes = Replay.check ctx ~file:job.Jobfile.j_file source in
              ignore (Replay.payload ctx outcomes.(i) []);
              Passes passes
          | _ ->
              let translator =
                Replay.session ctx (fun () ->
                    (* as Batch does: the tenant's grammar is read on every
                       job and keyed by its content; the weight is pinned to
                       the grammar's size so the replay's hits repeat *)
                    let ag = Util.read_file j.grammar in
                    Session.find_or_build ctx.Replay.cache
                      ~weight:(float_of_int (String.length ag))
                      ~digest:(Session.digest ~kind:"translator" ~source:ag)
                      ~label:j.grammar
                      ~build:(fun () ->
                        match
                          Linguist.Translator.of_source ~ag_source:ag ~file:j.grammar ()
                        with
                        | Ok t -> Session.Translator t
                        | Error _ -> failwith "tenant grammar rejected")
                      ())
              in
              Outputs
                (Replay.payload ctx outcomes.(i)
                   (Replay.translate ctx translator ~store:job.Jobfile.j_store
                      ~file:job.Jobfile.j_file source)))
    in
    if not (matches answer outcomes.(i).Batch.o_payload) then ok := false
  done;
  !ok

let run ~seed ~seconds ~trace ~dir =
  let inputs = make_inputs ~dir ~seed in
  let request i = inputs.jobs.(inputs.sequence i).request in
  let warm s =
    Served.closed_loop s ~clients:Served.nproc ~cursor:(Atomic.make 0) ~count:warmup
      ~until:infinity ~request ~keep
  in
  (* set-up: serve start-up plus the warm-up prefix, several times *)
  let setups = ref [] and server = ref None and warm_samples = ref [] in
  for rep = 1 to setup_reps do
    let t0 = Util.now () in
    let s = Served.start ~dir () in
    let samples = warm s in
    setups := (Util.now () -. t0) :: !setups;
    warm_samples := samples @ !warm_samples;
    if rep < setup_reps then Served.stop s else server := Some s
  done;
  let s = Option.get !server in
  let before = Served.snapshot s in
  let start = Util.now () in
  let samples =
    Served.closed_loop s ~clients:Served.nproc ~cursor:(Atomic.make warmup)
      ~count:max_int ~until:(start +. seconds) ~request ~keep
  in
  let after = Served.snapshot s in
  let serve_layers = if trace then Served.layer_metrics ~samples ~before ~after else [] in
  Served.stop s;
  let e2e =
    Workload.end_to_end ~setups:!setups ~start ~jobs:(Served.timings samples)
  in
  let warm_ok = List.for_all (sample_ok inputs) !warm_samples in
  let h0, m0, _ = before.Served.sessions and h1, m1, _ = after.Served.sessions in
  let n = List.length samples in
  let failed = List.length (List.filter (fun x -> not (sample_ok inputs x)) samples) in
  let checks =
    List.length
      (List.filter
         (fun (x : _ Served.sample) ->
           match inputs.jobs.(inputs.sequence x.Served.index).job.Jobfile.j_op with
           | Jobfile.Check -> true
           | _ -> false)
         samples)
  in
  let notes =
    [
      ("tenants", Printf.sprintf "%d distinct vs %d cache slots" tenants capacity);
      ( "resident_share",
        Printf.sprintf "%.3f of translate jobs found their tenant resident"
          (float_of_int (h1 - h0) /. float_of_int (max 1 (h1 - h0 + m1 - m0))) );
      ("check_share", Printf.sprintf "%.3f" (float_of_int checks /. float_of_int (max 1 n)));
    ]
  in
  let layers, replay_ok =
    if not trace then ([], true)
    else
      Workload.traced_replay ~dir ~name:"tenant_mix" ~seed
        ~cache:(fun () -> Session.create_cache ~capacity ())
        ~prepare:ignore
        ~jobs:(Array.init replay_jobs (fun i -> inputs.jobs.(inputs.sequence i).job))
        ~valid:(fun _ i o ->
          o.Batch.o_ok
          && matches (Lazy.force inputs.jobs.(inputs.sequence i).expect) o.Batch.o_payload)
        ~setup:ignore ~pass:(replay_pass inputs) ()
  in
  Workload.report ~trace ~attempted:n ~failed
    ~correct:(warm_ok && replay_ok && failed = 0)
    ~e2e ~layers:(serve_layers @ layers) ~notes

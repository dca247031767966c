(* edit_stream: one editor-like connection to an in-process serve with
   incremental re-translation on. A few large AG documents each take a
   seeded stream of one-constant edits as [update] ops; every fifth
   request is a full [translate] job of a document's current text. It
   writes per-document incremental state beside reads, and every
   request carries a large inline text, so the codec, scan/parse and
   incremental layers show here. *)

module Jobfile = Lg_server.Jobfile
module Session = Lg_server.Session
module Batch = Lg_server.Batch
module Json = Lg_support.Json_out

let docs = 3
let productions = 250
let walk = 6  (* edits before a document's walk turns back *)
let translate_every = 5
let setup_reps = 3
let replay_requests = 30
let language = "linguist"

type request = Update of int * int | Translate of int * int  (* doc, state *)

type inputs = {
  texts : string array array;  (** doc -> state -> text *)
  expect : (string * string) list Lazy.t array array;  (** forced after the timed run *)
  cycle : request array;  (** one period of the request sequence *)
}

let doc_name d = Printf.sprintf "doc%d.ag" d

(* A document's state [k] carries the first [k] edits of its walk over
   its seeded base constants. Requests visit the documents in turn and
   walk each forward [walk] edits and back again, so every update is a
   one-constant edit of the state the server holds, and the texts (and
   their oracle answers) repeat. *)
let make_inputs ~seed =
  let st = Util.rng ~seed "edit_stream" in
  let translator =
    lazy (Replay.translator_of (Session.language_session (Session.create_cache ()) language))
  in
  (* edit positions are stratified over the document, one stratum per
     (document, step), so that every seed edits near the root, in the
     middle and near the leaves alike and the cost of an update, which
     grows with how far its change propagates, keeps the same mix *)
  let strata = docs * walk in
  let order = Util.shuffle st (Array.init strata Fun.id) in
  let edit stratum =
    let lo = stratum * productions / strata and hi = (stratum + 1) * productions / strata in
    (lo + Random.State.int st (hi - lo), 2 + Random.State.int st 98)
  in
  let texts =
    Array.init docs (fun d ->
        let base = List.init 3 (fun _ -> (Random.State.int st productions, 2 + Random.State.int st 98)) in
        let steps = List.init walk (fun k -> edit order.((d * walk) + k)) in
        Array.init (walk + 1) (fun k ->
            let applied = List.rev (List.filteri (fun i _ -> i < k) steps) in
            Inputs.synthetic_ag ~edits:(applied @ base) productions))
  in
  let expect =
    Array.mapi
      (fun d states ->
        Array.map (fun text -> lazy (Util.oracle (Lazy.force translator) ~file:(doc_name d) text)) states)
      texts
  in
  (* every document's walk is back at its start after [period]
     requests, and so is the visiting order: the sequence repeats *)
  let period = docs * translate_every * 2 * walk in
  let steps = Array.make docs 0 in
  let state t = let m = t mod (2 * walk) in if m <= walk then m else (2 * walk) - m in
  let cycle =
    Array.init period (fun r ->
        let d = r mod docs in
        if r mod translate_every = translate_every - 1 then Translate (d, state steps.(d))
        else begin
          steps.(d) <- steps.(d) + 1;
          Update (d, state steps.(d))
        end)
  in
  assert (Array.for_all (fun t -> state t = 0) steps);
  { texts; expect; cycle }

let request_at inputs i = inputs.cycle.(i mod Array.length inputs.cycle)

let update_op inputs d k =
  Json.Obj
    [
      ("op", Json.Str "update");
      ("language", Json.Str language);
      ("source", Json.Str inputs.texts.(d).(k));
      ("doc", Json.Str (doc_name d));
    ]

let translate_job inputs d k =
  Jobfile.make ~id:(Printf.sprintf "%s@%d" (doc_name d) k) ~source:inputs.texts.(d).(k)
    ~op:(Jobfile.Translate (Jobfile.Language language)) ~file:(doc_name d) ()

let update_job inputs d k =
  Jobfile.make ~id:(Printf.sprintf "%s@%d" (doc_name d) k) ~source:inputs.texts.(d).(k)
    ~doc:(doc_name d) ~op:(Jobfile.Update (Jobfile.Language language)) ~file:(doc_name d) ()

let request_doc inputs = function
  | Update (d, k) -> update_op inputs d k
  | Translate (d, k) ->
      Json.Obj [ ("op", Json.Str "job"); ("job", Jobfile.job_to_json (translate_job inputs d k)) ]

(* What a check needs of a response: its outputs (an update's at the
   top level, a translate job's in its payload) and an update's
   evaluation mode. *)
let keep r =
  let outputs = Util.payload_outputs (Option.value ~default:r (Json.member "payload" r)) in
  let mode =
    match Option.bind (Json.member "incremental" r) (Json.member "kind") with
    | Some (Json.Str m) -> m
    | _ -> "?"
  in
  (outputs, mode)

(* The update's evaluation mode, or [None] when the answer is wrong. *)
let check inputs req answer =
  let outputs_ok d k outputs = outputs = Some (Lazy.force inputs.expect.(d).(k)) in
  match (req, answer) with
  | Update (d, k), Some (outputs, mode) when outputs_ok d k outputs -> Some mode
  | Translate (d, k), Some (outputs, _) when outputs_ok d k outputs -> Some "translate"
  | _ -> None

(* ---- the traced replay ---- *)

let digest = Session.digest ~kind:"language" ~source:language

let replay_pass inputs outcomes (ctx : Replay.ctx) =
  let ok = ref true in
  for i = 0 to replay_requests - 1 do
    let req = request_at inputs i in
    let rendered =
      Replay.job ctx (fun () ->
          let d, text =
            match req with
            | Update (d, k) ->
                let doc = Replay.wire ctx (update_op inputs d k) in
                (d, Json.to_str (Json.member_exn "source" doc))
            | Translate (d, k) ->
                let job = Replay.codec ctx (translate_job inputs d k) in
                (d, Option.get job.Jobfile.j_source)
          in
          let translator =
            Replay.session ctx (fun () -> Session.language_session ctx.Replay.cache language)
          in
          Replay.payload ctx outcomes.(i)
            (match req with
            | Update _ -> Replay.update ctx translator ~digest ~doc:(doc_name d) text
            | Translate _ -> Replay.translate ctx translator ~store:"mem" ~file:(doc_name d) text))
    in
    if Some rendered <> Util.payload_outputs outcomes.(i).Batch.o_payload then ok := false
  done;
  !ok

let run ~seed ~seconds ~trace ~dir =
  let inputs = make_inputs ~seed in
  (* set-up: serve start-up, the translator session and each document's
     first (from-scratch) update, several times *)
  let setups = ref [] and server = ref None and loads = ref [] in
  for rep = 1 to setup_reps do
    let t0 = Util.now () in
    let s = Served.start ~dir ~incremental:Batch.default_incremental () in
    for d = 0 to docs - 1 do
      let r = Lg_server.Server.request ~attempts:1 ~socket:s.Served.socket (update_op inputs d 0) in
      loads := (d, if Served.response_ok r then Some (keep r) else None) :: !loads
    done;
    setups := (Util.now () -. t0) :: !setups;
    if rep < setup_reps then Served.stop s else server := Some s
  done;
  let s = Option.get !server in
  let before = Served.snapshot s in
  let start = Util.now () in
  let samples =
    Served.closed_loop s ~clients:1 ~cursor:(Atomic.make 0) ~count:max_int
      ~until:(start +. seconds)
      ~request:(fun i -> request_doc inputs (request_at inputs i))
      ~keep
  in
  let after = Served.snapshot s in
  let serve_layers = if trace then Served.layer_metrics ~samples ~before ~after else [] in
  Served.stop s;
  let e2e =
    Workload.end_to_end ~setups:!setups ~start ~jobs:(Served.timings samples)
  in
  let load_ok =
    List.for_all (fun (d, a) -> check inputs (Update (d, 0)) a <> None) !loads
  in
  let kinds =
    List.map
      (fun (x : _ Served.sample) -> check inputs (request_at inputs x.Served.index) x.Served.answer)
      samples
  in
  let n = List.length samples in
  let failed = List.length (List.filter Option.is_none kinds) in
  let share kind =
    let updates = List.filter (fun k -> k <> Some "translate") kinds in
    float_of_int (List.length (List.filter (( = ) (Some kind)) updates))
    /. float_of_int (max 1 (List.length updates))
  in
  let notes =
    [
      ( "update_modes",
        Printf.sprintf "incremental %.3f, fallback %.3f, fresh %.3f of updates"
          (share "incremental") (share "fallback") (share "fresh") );
    ]
  in
  let layers, replay_ok =
    if not trace then ([], true)
    else
      let job i =
        match request_at inputs i with
        | Update (d, k) -> update_job inputs d k
        | Translate (d, k) -> translate_job inputs d k
      in
      Workload.traced_replay ~dir ~name:"edit_stream" ~seed
        ~cache:(fun () -> Session.create_cache ())
        ~prepare:(fun c ->
          for d = 0 to docs - 1 do
            ignore
              (Batch.run_job ~sessions:c ~incremental:Batch.default_incremental
                 (update_job inputs d 0))
          done)
        ~incremental:Batch.default_incremental
        ~jobs:(Array.init replay_requests job)
        ~valid:(fun _ i o ->
          match request_at inputs i with
          | Update (d, k) | Translate (d, k) ->
              o.Batch.o_ok && Util.payload_outputs o.Batch.o_payload = Some (Lazy.force inputs.expect.(d).(k)))
        ~setup:(fun ctx ->
          Replay.setup ctx (fun () ->
              let translator =
                Replay.session ctx (fun () ->
                    Session.language_session ctx.Replay.cache language)
              in
              for d = 0 to docs - 1 do
                ignore
                  (Replay.update ctx translator ~digest ~doc:(doc_name d)
                     inputs.texts.(d).(0))
              done))
        ~pass:(replay_pass inputs) ()
  in
  Workload.report ~trace ~attempted:n ~failed
    ~correct:(load_ok && replay_ok && failed = 0)
    ~e2e ~layers:(serve_layers @ layers) ~notes

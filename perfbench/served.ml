(* An in-process [Server.serve] on a Unix socket, and closed-loop
   clients that drive it through the public [Server.request] client. *)

module Server = Lg_server.Server
module Json = Lg_support.Json_out
module Metrics = Lg_support.Metrics

(* The serve's worker domains, and tenant_mix's client connections: one
   per core the host offers, capped so that a large host measures the
   same shape of load. *)
let nproc = max 1 (min 4 (Domain.recommended_domain_count ()))

type t = { socket : string; thread : Thread.t }

let op name = Json.Obj [ ("op", Json.Str name) ]

(* A request that must succeed: the harness's own control traffic. *)
let control s doc =
  let r = Server.request ~socket:s.socket doc in
  match Json.member "ok" r with
  | Some (Json.Bool true) -> r
  | _ -> failwith ("serve refused a control request: " ^ Json.to_string r)

let start ~dir ?incremental () =
  let socket = Filename.concat dir "serve.sock" in
  let thread =
    Thread.create
      (fun () -> Server.serve ?incremental ~workers:nproc ~socket ())
      ()
  in
  let s = { socket; thread } in
  (* the client retries a socket that is not bound yet *)
  ignore (Server.request ~attempts:50 ~backoff:0.01 ~budget:30.0 ~socket (op "ping"));
  s

let stop s =
  ignore (control s (op "shutdown"));
  Thread.join s.thread

let response_ok r = match Json.member "ok" r with Some (Json.Bool b) -> b | _ -> false

type 'a sample = {
  index : int;  (** position in the workload's request sequence *)
  seconds : float;  (** round trip as the client sees it *)
  finished : float;  (** when the answer arrived *)
  answer : 'a option;  (** [None] when the request failed or was refused *)
}

(* [clients] closed loops, each sending its next request only once the
   previous answer is in, drawing positions from one shared cursor so
   the global request order is the seeded one. Loops stop starting
   requests at [until]. Of each accepted response only [keep r] is held
   for the checks after the run, so that the run's RSS high-water mark
   is the serve's, not that of a pile of parsed answers. *)
let closed_loop s ~clients ~cursor ~count ~until ~request ~keep =
  let results = Array.make clients [] in
  let client c () =
    let rec go acc =
      let i = Atomic.fetch_and_add cursor 1 in
      if i >= count || Util.now () >= until then acc
      else begin
        let doc = request i in
        let t0 = Util.now () in
        let response =
          match Server.request ~attempts:1 ~socket:s.socket doc with
          | r -> Some r
          | exception _ -> None
        in
        let t1 = Util.now () in
        let answer =
          match response with Some r when response_ok r -> Some (keep r) | _ -> None
        in
        go ({ index = i; seconds = t1 -. t0; finished = t1; answer } :: acc)
      end
    in
    results.(c) <- go []
  in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

let timings samples = List.map (fun x -> (x.finished, x.seconds)) samples

(* ---- scraping the serve's own accounting ---- *)

(* A histogram of the [metrics] op over a window: the bucket counts and
   sum of the [after] scrape minus those of the [before] one. *)
let window_histogram ~before ~after name =
  let get doc =
    match Json.member name doc with
    | Some h ->
        let floats k = Array.of_list (List.map Json.to_num (Json.to_list (Json.member_exn k h))) in
        Some (floats "buckets", floats "counts", Json.to_num (Json.member_exn "sum" h))
    | None -> None
  in
  match (get before, get after) with
  | Some (buckets, c0, s0), Some (_, c1, s1) ->
      let counts = Array.mapi (fun i c -> int_of_float (c -. c0.(i))) c1 in
      {
        Metrics.h_buckets = buckets;
        h_counts = counts;
        h_sum = s1 -. s0;
        h_count = Array.fold_left ( + ) 0 counts;
      }
  | _ -> { Metrics.h_buckets = [||]; h_counts = [| 0 |]; h_sum = 0.0; h_count = 0 }

let percentile_ms h q = Util.ms (Option.value ~default:0.0 (Metrics.percentile h q))

(* Session outcomes summed over the [tenants] op's per-digest cache
   columns: (hits, misses, evictions). *)
let session_counts s =
  let rows = Json.to_list (Json.member_exn "tenants" (control s (op "tenants"))) in
  List.fold_left
    (fun (h, m, e) row ->
      let c = Json.member_exn "cache" row in
      let get k = Json.to_int (Json.member_exn k c) in
      (h + get "hits", m + get "misses", e + get "evictions"))
    (0, 0, 0) rows

(* What the serve's own accounting says at one instant. *)
type snapshot = { metrics : Json.t; sessions : int * int * int }

let snapshot s =
  { metrics = Json.member_exn "metrics" (control s (op "metrics")); sessions = session_counts s }

(* The serving-layer metrics of the timed window between two
   snapshots: client round trips from the samples; queue wait and
   service time from the [metrics] op's histograms (bucket-interpolated
   percentiles, exact sums); session outcomes from the [tenants] op. *)
let layer_metrics ~samples ~before ~after =
  let m = Util.metric in
  let rt = List.map (fun x -> x.seconds) samples in
  let hist = window_histogram ~before:before.metrics ~after:after.metrics in
  let wait = hist "server.queue_wait_seconds" and service = hist "server.service_seconds" in
  let h0, m0, e0 = before.sessions and h1, m1, e1 = after.sessions in
  let hits = h1 - h0 and misses = m1 - m0 in
  let mean_service =
    if service.Metrics.h_count = 0 then 0.0
    else service.Metrics.h_sum /. float_of_int service.Metrics.h_count
  in
  [
    m "server.roundtrip_ms.p50" "ms" (Util.ms (Util.quantile rt 0.5));
    m "server.roundtrip_ms.p90" "ms" (Util.ms (Util.quantile rt 0.9));
    m "server.queue_wait_ms.p50" "ms" (percentile_ms wait 0.5);
    m "server.queue_wait_ms.p90" "ms" (percentile_ms wait 0.9);
    m "server.service_ms.p50" "ms" (percentile_ms service 0.5);
    m "server.overhead_ms.mean" "ms" (Util.ms (Util.mean rt -. mean_service));
    m "session.lookups" "count" (float_of_int (hits + misses));
    m "session.hits" "count" (float_of_int hits);
    m "session.builds" "count" (float_of_int misses);
    m "session.evictions" "count" (float_of_int (e1 - e0));
    m "session.hit_ratio" "ratio"
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
  ]

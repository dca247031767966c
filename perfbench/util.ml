(* Clock, statistics and reporting helpers shared by the workloads. *)

(* Every duration in the benchmark comes from CLOCK_MONOTONIC (bechamel's
   stub): process CPU time would hide waiting, and the time of day can
   step. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (Python's
   statistics.quantiles "inclusive" method). *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
      let a = Array.of_list sorted in
      let pos = Float.max 0.0 (Float.min 1.0 q) *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)
let ms s = s *. 1000.0

(* The highest percentile that keeps at least ten samples above it — 90
   once a run completes 100 jobs. *)
let tail_quantile n = Float.min 0.9 (1.0 -. (10.0 /. float_of_int (max n 1)))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

let rng ~seed salt = Random.State.make [| seed; Hashtbl.hash salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A private working directory inside the checkout, made the process's
   temp dir: grammar tenants, the jobs' APT store directories, the serve
   spool and socket all live here. *)
let work_dir = ".perfbench_work"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_work_dir () =
  let dir = Printf.sprintf "%s/%d" work_dir (Unix.getpid ()) in
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let tmp = Filename.concat dir "tmp" in
  Unix.mkdir tmp 0o755;
  Filename.set_temp_dir_name tmp;
  dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---- correctness oracle ---- *)

(* The root outputs as the serving layer renders them. *)
let render outputs =
  List.sort compare
    (List.map (fun (n, v) -> (n, Lg_support.Value.to_string v)) outputs)

(* Demand-driven evaluation of the same tree the translator builds: the
   engine-vs-Demand differential oracle, independent of passes, files
   and incremental state. *)
let oracle translator ~file text =
  let diag = Lg_support.Diag.create () in
  match Linguist.Translator.tree_of_source translator ~file ~diag text with
  | None -> failwith ("oracle: input does not parse: " ^ file)
  | Some tree ->
      render (Linguist.Demand.evaluate (Linguist.Translator.ir translator) tree)
        .Linguist.Demand.outputs

(* The ["outputs"] member of a translate/update payload, rendered the
   way [render] renders an oracle. *)
let payload_outputs doc =
  match Lg_support.Json_out.member "outputs" doc with
  | Some (Lg_support.Json_out.Obj kvs) ->
      Some
        (List.sort compare
           (List.filter_map
              (fun (k, v) ->
                match v with Lg_support.Json_out.Str s -> Some (k, s) | _ -> None)
              kvs))
  | _ -> None

(* ---- reporting ---- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : (string * string) list;  (** human-readable extras, not gated *)
}

let print_report ~workload r =
  List.iter (fun (k, v) -> Printf.printf "%s  %-28s %s\n" workload k v) r.notes;
  List.iter
    (fun m -> Printf.printf "%s  %-28s %.6g %s\n" workload m.name m.value m.unit_)
    r.metrics;
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let metrics =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
             m.unit_)
         r.metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed metrics

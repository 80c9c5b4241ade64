(* Measurement helpers for the benchmark: clocks, memory, order
   statistics, the metric list printed as the result line, and the span
   forest read back from an Obs.Trace file. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)
(* ------------------------------------------------------------------ *)

(* The benchmark host is shared and its speed drifts by tens of percent
   over minutes, more than any useful regression bound.  So each set-up
   and pass is bracketed by a probe — fixed code that neither calls the
   program under test nor allocates, so no change to the program or its
   GC settings moves it: random read-modify-writes over a 32 MB table
   (memory-bound) plus dependent arithmetic on a cache-resident one
   (CPU-bound) — and its time is reported at the reference speed where
   the probe takes [probe_ref_s]: raw * probe_ref_s / mean of the two
   probes around it.  Short set-ups share one pair of probes around the
   whole series. *)
let probe_ref_s = 0.12

let probe_big = Array.make (4 * 1024 * 1024) 0

let probe_small = Array.make 8192 0

let probe () =
  let t0 = now () in
  let x = ref 12345 in
  let n = Array.length probe_big in
  for _ = 1 to 3_000_000 do
    x := (!x * 1103515245 + 12345) land 0x3fffffff;
    let i = !x mod n in
    probe_big.(i) <- probe_big.(i) + 1
  done;
  for _ = 1 to 12_000_000 do
    x := (!x lxor (!x lsl 13)) land 0x3fffffff;
    x := !x lxor (!x lsr 7);
    let i = !x land 8191 in
    probe_small.(i) <- probe_small.(i) + !x
  done;
  now () -. t0

type probes = { mutable last : float; mutable all : float list }

let start_probes () =
  ignore (probe ());  (* first touch of the table: page faults *)
  let p = probe () in
  { last = p; all = [ p ] }

(* Probe again: the factor that takes a time measured since the previous
   probe of [ps] to the reference speed. *)
let speed_factor ps =
  let p = probe () in
  let speed = (ps.last +. p) /. 2.0 in
  ps.last <- p;
  ps.all <- p :: ps.all;
  probe_ref_s /. speed

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* The process's resident high-water mark (VmHWM) in MB; the benchmark
   process runs one workload, so this is that workload's peak. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
    | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
  in
  scan ()

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Words allocated by this domain so far (minor + direct major, without
   counting promotions twice). *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let reachable_mb v = mb_of_words (float_of_int (Obj.reachable_words (Obj.repr v)))

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs = List.sort compare xs

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> invalid_arg "quantile of no samples"
  | s ->
      let a = Array.of_list s in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* The highest whole percentile with at least ten samples beyond it —
   the deepest tail the sample count supports (p50 below 20 samples).
   Returns (value, percentile, samples beyond it). *)
let tail xs =
  let n = List.length xs in
  let p = if n < 20 then 50 else 100 * (n - 10) / n in
  let v = quantile (float_of_int p /. 100.0) xs in
  (v, p, List.length (List.filter (fun x -> x > v) xs))

(* ------------------------------------------------------------------ *)
(* Metrics and the result line                                         *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s = Serve.Json.to_string (Serve.Json.String s)

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
          (json_float m.value) (json_string m.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)

(* ------------------------------------------------------------------ *)
(* Span forest                                                         *)
(* ------------------------------------------------------------------ *)

type span = {
  sname : string;
  ts : int;
  dur : int;
  tid : int;
  mutable children : span list;
}

(* Complete ("X") events of a Chrome trace-event file written by
   [Obs.Trace.write_file]. *)
let read_spans path =
  let ic = open_in_bin path in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let module J = Serve.Json in
  let events =
    match J.of_string text with
    | Error e -> failwith ("unreadable trace file: " ^ e)
    | Ok doc -> (
        match Option.bind (J.member "traceEvents" doc) J.to_list with
        | Some evs -> evs
        | None -> failwith "trace file has no traceEvents")
  in
  List.filter_map
    (fun ev ->
      let int k = Option.bind (J.member k ev) J.to_int in
      match
        (Option.bind (J.member "name" ev) J.to_str, J.member "ph" ev,
         int "ts", int "dur", int "tid")
      with
      | Some sname, Some (J.String "X"), Some ts, Some dur, Some tid ->
          Some { sname; ts; dur; tid; children = [] }
      | _ -> None)
    events

(* Nest the spans of one thread id by time containment.  Spans are
   recorded at microsecond resolution, so a child may share an endpoint
   with its parent. *)
let forest ~tid spans =
  let mine =
    List.filter (fun s -> s.tid = tid) spans
    |> List.sort (fun a b ->
           match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
  in
  let roots = ref [] in
  let stack = ref [] in
  let rec place s =
    match !stack with
    | [] ->
        roots := s :: !roots;
        stack := [ s ]
    | top :: rest ->
        if s.ts + s.dur <= top.ts + top.dur then begin
          top.children <- s :: top.children;
          stack := s :: !stack
        end
        else begin
          stack := rest;
          place s
        end
  in
  List.iter place mine;
  List.rev !roots

let self_us s = s.dur - List.fold_left (fun a c -> a + c.dur) 0 s.children

let rec iter_tree f s =
  f s;
  List.iter (iter_tree f) s.children

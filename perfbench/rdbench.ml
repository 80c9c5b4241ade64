(* The repository benchmark: one workload per process, measured from
   outside the library by timing calls into each layer's public
   functions and reading the existing Obs.Metrics counters and
   Obs.Trace spans.

     rdbench --workload refine|observe|serve-churn --seed N --seconds S
             --trace 0|1 [--world tiny] [--expect-failures]

   Set-up runs several times (the median is [setup_s]); the
   timed phase then repeats one pass of the workload until [--seconds]
   have elapsed and reports the median pass.  With [--trace 0] the
   result line carries the end-to-end metrics; with [--trace 1] passes
   alternate untraced and traced, and the result line carries the
   per-layer metrics of the traced passes.  The last line of standard
   output is the result object; a provenance line precedes it.  Exit
   status 1 when a correctness check failed. *)

open Bgp
module M = Measure
module Conf = Netgen.Conf
module Groundtruth = Netgen.Groundtruth
module Qrmodel = Asmodel.Qrmodel
module Refiner = Refine.Refiner
module Predict = Evaluation.Predict
module Net = Simulator.Net
module Pool = Simulator.Pool
module Engine = Simulator.Engine
module Snapshot = Serve.Snapshot
module Protocol = Serve.Protocol
module Json = Serve.Json

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                      *)
(* ------------------------------------------------------------------ *)

let refine_scale = 0.2

let observe_ases = 400

let serve_scale = 0.15

let churn_events = 12

let reads_per_event = 8

let whatif_every = 4

(* Set-up repeats: at least [min_setups], then until [setup_budget_s]
   is spent, at most [max_setups]. *)
let min_setups = 5

let max_setups = 200

let setup_budget_s = 3.0

(* Tolerance of the span accounting checks: the layer spans must cover
   the pass, and the refinement split must add up to the refiner's own
   span, within this share. *)
let attribution_tolerance = 0.02

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
  expect_failures : bool;
}

let usage () =
  prerr_endline
    "usage: rdbench --workload refine|observe|serve-churn --seed N \
     --seconds S --trace 0|1 [--world tiny] [--expect-failures]";
  exit 2

let parse_args argv =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--world" :: "tiny" :: rest -> go { a with tiny = true } rest
    | "--expect-failures" :: rest -> go { a with expect_failures = true } rest
    | _ -> usage ()
  in
  let a =
    try
      go
        { workload = ""; seed = 1; seconds = 10.0; trace = false; tiny = false;
          expect_failures = false }
        argv
    with Failure _ -> usage ()
  in
  if not (List.mem a.workload [ "refine"; "observe"; "serve-churn" ]) then
    usage ();
  a

(* ------------------------------------------------------------------ *)
(* Checks and failure accounting                                       *)
(* ------------------------------------------------------------------ *)

let check_failures = ref []

let check ok what =
  if not ok then begin
    if not (List.mem what !check_failures) then
      Printf.eprintf "rdbench: check failed: %s\n%!" what;
    check_failures := what :: !check_failures
  end

(* Operations are the pool's simulation tasks (the [pool.tasks]
   counter) plus the requests and churn applies the benchmark issues.
   An operation fails when a task still fails after the pool's retry or
   its simulation does not converge (what sends a prefix to
   quarantine), or when a request gets an error response or an apply
   returns an error. *)
let direct_ops = ref 0

let direct_failed = ref 0

let fail_direct () = incr direct_failed

let counter = Obs.Metrics.find_counter

let failed_tasks () =
  counter "pool.failed" + counter "engine.truncated" + counter "engine.diverged"

(* Outputs that must agree between every pass and set-up of a run;
   the first value of each is also reported in the provenance line, so
   two runs of one seed can be compared. *)
let outputs = ref []

let same_everywhere label =
  let first = ref None in
  fun show v ->
    match !first with
    | None ->
        first := Some v;
        outputs := (label, show v) :: !outputs
    | Some v0 -> check (v = v0) (label ^ " differs between passes")

(* ------------------------------------------------------------------ *)
(* Layer calls                                                         *)
(* ------------------------------------------------------------------ *)

(* One timed pass: per-metric wall seconds of the benchmark's calls,
   per-layer allocation, other per-layer values. *)
type pass = {
  run : string;  (** workload/seed/pass: the id every span of the pass carries *)
  traced : bool;
  walls : (string, float) Hashtbl.t;
  allocs : (string, float) Hashtbl.t;
  values : (string, float) Hashtbl.t;
  mutable live_mb : float;
}

let new_pass run traced =
  { run; traced; walls = Hashtbl.create 16; allocs = Hashtbl.create 16;
    values = Hashtbl.create 32; live_mb = 0.0 }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let set p k v = Hashtbl.replace p.values k v

(* Time the benchmark spends on its own checks and heap sampling in the
   middle of a pass, kept out of the pass wall time. *)
let aside_s = ref 0.0

let aside span f =
  let r, dt = M.timed (fun () -> Obs.Trace.with_span span f) in
  aside_s := !aside_s +. dt;
  r

(* Correctness checks made in the middle of a pass; their span is
   attributed to the benchmark itself. *)
let checked f = aside "bench.check" f

(* In traced passes, the live heap after a layer call (a full heap walk,
   in a span of its own attributed to obs). *)
let sample_live p =
  if p.traced then
    aside "bench.gc_stat" (fun () ->
        let s = Gc.stat () in
        p.live_mb <-
          Float.max p.live_mb (M.mb_of_words (float_of_int s.Gc.live_words)))

(* Call [f] as the benchmark's entry into [layer], inside the span
   ["bench." ^ name]; its wall time adds to [metric] (when given) and
   its allocation to [layer].  The live heap is sampled afterwards
   unless [sample] is false — per-event calls skip it. *)
let call p ~layer ?metric ?(sample = true) name f =
  let a0 = M.allocated_words () in
  let sp = Obs.Trace.begin_span ~args:[ ("run", p.run) ] ("bench." ^ name) in
  let t0 = M.now () in
  let r = f () in
  let dt = M.now () -. t0 in
  Obs.Trace.end_span sp;
  bump p.allocs layer (M.allocated_words () -. a0);
  Option.iter (fun m -> bump p.walls m dt) metric;
  if sample then sample_live p;
  Obs.Metrics.record_gc ();
  (r, dt)

let call_ p ~layer ?metric ?sample name f =
  fst (call p ~layer ?metric ?sample name f)

(* ------------------------------------------------------------------ *)
(* Shared pipeline pieces                                              *)
(* ------------------------------------------------------------------ *)

let run_dir = ".bench_run"

let run_file name =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat run_dir (Printf.sprintf "%s-%d" name (Unix.getpid ()))

(* The reference worlds are fixed — generator seed 42 and the
   pipeline's default split seed 7 — so every run measures the same
   amount of work; [--seed] drives the order the inputs arrive in (dump
   records, prefixes) and the churn stream and query mix. *)
let world_seed = 42

let split_seed = 7

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let conf_of args ~scale =
  if args.tiny then { Conf.tiny with seed = world_seed }
  else { (Conf.scaled scale) with seed = world_seed }

(* Pool workers: two for the pipelines, one for the single-worker
   observation baseline. *)
let jobs_of args = if args.workload = "observe" then 1 else 2

let refiner_options jobs = { Refiner.default_options with jobs = Some jobs }

let world_ases (w : Groundtruth.world) =
  Asn.Map.cardinal w.Groundtruth.topo.Netgen.Gentopo.tiers

let model_counts (model : Qrmodel.t) =
  let net = model.Qrmodel.net in
  let filters, meds = Net.count_policies net in
  (Net.node_count net, Net.session_count net, filters, meds)

let set_model_counts p model =
  let nodes, sessions, filters, meds = model_counts model in
  set p "asmodel.nodes" (float_of_int nodes);
  set p "asmodel.sessions" (float_of_int sessions);
  set p "asmodel.filters" (float_of_int filters);
  set p "asmodel.med_rules" (float_of_int meds)

(* Split [Refiner.refine] into presimulation, matching + mutation, and
   the final pass, from the [on_iteration] timestamps and the pool
   statistics alone. *)
let refine_split p ~options model ~training =
  let marks = ref [] in
  let start = ref 0.0 in
  let result, stop =
    call_ p ~layer:"refine" "refine" (fun () ->
        start := M.now ();
        let r =
          Refiner.refine ~options
            ~on_iteration:(fun st -> marks := (M.now (), st) :: !marks)
            model ~training
        in
        (r, M.now ()))
  in
  let presim, mutate, last, iter_runs =
    List.fold_left
      (fun (presim, mutate, prev, runs) (t, (st : Refiner.iter_stat)) ->
        let w = st.Refiner.pool.Pool.wall in
        (presim +. w, mutate +. (t -. prev -. w), t,
         runs + st.Refiner.pool.Pool.prefixes))
      (0.0, 0.0, !start, 0) (List.rev !marks)
  in
  set p "refine.iterations" (float_of_int result.Refiner.iterations);
  set p "refine.presim_s" presim;
  set p "refine.mutate_s" mutate;
  set p "refine.final_pass_s" (stop -. last);
  set p "refine.final_pass_runs"
    (float_of_int (result.Refiner.pool.Pool.prefixes - iter_runs));
  result

let check_refinement (result : Refiner.result) =
  check
    (result.Refiner.matched = result.Refiner.total
    && result.Refiner.quarantined_prefixes = 0)
    (Printf.sprintf "refinement matched %d/%d training suffixes, %d quarantined"
       result.Refiner.matched result.Refiner.total
       result.Refiner.quarantined_prefixes)

let predict_totals (r : Predict.report) =
  let t = r.Predict.totals in
  Predict.(t.cases, t.rib_out, t.potential_rib_out, t.rib_in, t.no_rib_in,
           t.unresolved)

(* ------------------------------------------------------------------ *)
(* Workload: refine                                                    *)
(* ------------------------------------------------------------------ *)

type refine_env = {
  dump : string;
  dump_bytes : int;
  ases : int;
  prefixes : int;
}

let refine_setup args =
  let conf = conf_of args ~scale:refine_scale in
  let world = Groundtruth.build conf in
  let rib = Groundtruth.observe world in
  let dump = run_file "refine.mrt" in
  Mrt.write_file dump (shuffle args.seed (Rib.to_records rib));
  { dump; dump_bytes = (Unix.stat dump).Unix.st_size;
    ases = world_ases world; prefixes = List.length (Rib.prefixes rib) }

let same_refine_model = same_everywhere "refined_model"

let same_prediction = same_everywhere "prediction_totals"

let refine_pass args env p =
  let jobs = jobs_of args in
  let rib =
    call_ p ~layer:"bgp" ~metric:"bgp.parse_s" "parse" (fun () ->
        let records, errors = Mrt.read_file env.dump in
        check (errors = []) "dump has malformed lines";
        set p "bgp.records" (float_of_int (List.length records));
        fst (Rib.of_records records))
  in
  let prepared =
    call_ p ~layer:"topology" ~metric:"topology.prepare_s" "prepare" (fun () ->
        Core.prepare rib)
  in
  let split =
    call_ p ~layer:"evaluation" ~metric:"evaluation.split_s" "split" (fun () ->
        Core.split ~seed:split_seed prepared)
  in
  let model =
    call_ p ~layer:"asmodel" "initial" (fun () ->
        Qrmodel.initial prepared.Core.graph)
  in
  let result =
    refine_split p ~options:(refiner_options jobs) model
      ~training:split.Evaluation.Split.training
  in
  let report =
    call_ p ~layer:"evaluation" ~metric:"evaluation.predict_s" "predict"
      (fun () ->
        Predict.evaluate ~jobs model ~states:result.Refiner.states
          split.Evaluation.Split.validation)
  in
  (result, report)

let refine_check p (result, report) =
  check_refinement result;
  set_model_counts p result.Refiner.model;
  same_refine_model
    (fun (n, s, f, m) -> Printf.sprintf "%d/%d/%d/%d" n s f m)
    (model_counts result.Refiner.model);
  same_prediction
    (fun (c, o, po, i, ni, u) -> Printf.sprintf "%d/%d/%d/%d/%d/%d" c o po i ni u)
    (predict_totals report);
  set p "evaluation.train_match_frac"
    (float_of_int result.Refiner.matched /. float_of_int (max 1 result.Refiner.total));
  set p "evaluation.predict_exact_frac" (Predict.exact_fraction report);
  set p "evaluation.predict_tiebreak_frac"
    (Predict.down_to_tie_break_fraction report);
  if p.traced then set p "refine.states_mb" (M.reachable_mb result.Refiner.states)

(* ------------------------------------------------------------------ *)
(* Workload: observe                                                   *)
(* ------------------------------------------------------------------ *)

let observe_setup args =
  let conf =
    if args.tiny then { Conf.tiny with seed = world_seed }
    else { (Conf.sized observe_ases) with seed = world_seed }
  in
  let world = Groundtruth.build conf in
  { world with
    Groundtruth.prefix_plan = shuffle args.seed world.Groundtruth.prefix_plan }

let same_dump = same_everywhere "dump_digest"

let observe_pass world p =
  let path = run_file "observe.mrt" in
  let rib =
    call_ p ~layer:"netgen" ~metric:"netgen.observe_s" "observe" (fun () ->
        Groundtruth.observe world)
  in
  let written =
    call_ p ~layer:"bgp" ~metric:"bgp.write_s" "write" (fun () ->
        let records = Rib.to_records rib in
        Mrt.write_file path records;
        List.length records)
  in
  let read, errors =
    call_ p ~layer:"bgp" ~metric:"bgp.parse_s" "parse" (fun () ->
        Mrt.read_file path)
  in
  (path, written, List.length read, errors = [])

let observe_check p (path, written, read, clean) =
  check (clean && read = written)
    (Printf.sprintf "dump read back %d of %d records" read written);
  set p "bgp.records" (float_of_int read);
  same_dump
    (fun (d, n, bytes) -> Printf.sprintf "%s/%d records/%d bytes" (Digest.to_hex d) n bytes)
    (Digest.file path, read, (Unix.stat path).Unix.st_size);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Workload: serve-churn                                               *)
(* ------------------------------------------------------------------ *)

type serve_env = {
  store : Snapshot.store;
  model : Qrmodel.t;
  server : Serve.Server.t;
  conn : Serve.Server.conn;
  stream : Stream.Event.t list;
  edges : (Asn.t * Asn.t) array;
  ases : Asn.t array;
  world_ases : int;
  snapshot_s : float;
}

(* Refine the model of the world with the code under test, publish it
   as a snapshot over the refiner's final states, and connect to a query
   server on it. *)
let serve_setup args =
  let jobs = jobs_of args in
  let world = Groundtruth.build (conf_of args ~scale:serve_scale) in
  let prepared = Core.prepare (Groundtruth.observe world) in
  let split = Core.split ~seed:split_seed prepared in
  let model = Qrmodel.initial prepared.Core.graph in
  let result =
    Refiner.refine ~options:(refiner_options jobs) model
      ~training:split.Evaluation.Split.training
  in
  check_refinement result;
  let states =
    List.filter_map
      (fun (prefix, _) ->
        Option.map (fun st -> (prefix, st))
          (Hashtbl.find_opt result.Refiner.states prefix))
      model.Qrmodel.prefixes
  in
  let snap, snapshot_s = M.timed (fun () -> Snapshot.of_states model states) in
  let store = Snapshot.store () in
  Snapshot.publish store snap;
  let listen = Serve.Server.Unix_path (run_file "serve.sock") in
  let server = Serve.Server.start ~deadline_ms:0 ~store listen in
  let conn =
    match Serve.Server.connect listen with
    | Ok c -> c
    | Error e -> failwith ("cannot connect to the query server: " ^ e)
  in
  let stream =
    Stream.Streamgen.mixed ~events:churn_events model
      (Random.State.make [| world_seed |])
  in
  { store; model; server; conn; stream;
    edges = Array.of_list (Topology.Asgraph.edges model.Qrmodel.graph);
    ases = Array.of_list (Topology.Asgraph.nodes model.Qrmodel.graph);
    world_ases = world_ases world; snapshot_s }

let serve_teardown env =
  Serve.Server.close_conn env.conn;
  Serve.Server.stop env.server;
  Serve.Server.wait env.server;
  Option.iter Snapshot.retire (Snapshot.current env.store)

let current env =
  match Snapshot.current env.store with
  | Some s -> s
  | None -> failwith "no snapshot published"

let snapshot_fingerprint snap =
  List.fold_left
    (fun acc (_, st) -> Hashtbl.hash (acc, Engine.state_fingerprint st))
    0 (Snapshot.states snap)

let net_fingerprint env =
  let net = env.model.Qrmodel.net in
  (Net.structure_fingerprint net, Net.count_policies net, Net.generation net)

(* One request over the wire; client latency in µs and the server's
   own [elapsed_us]. *)
let request env req =
  let t0 = M.now () in
  let resp = Serve.Server.request env.conn req in
  let client_us = (M.now () -. t0) *. 1e6 in
  incr direct_ops;
  match resp with
  | Error e ->
      fail_direct ();
      Printf.eprintf "rdbench: request failed: %s\n%!" e;
      None
  | Ok json ->
      if Json.member "ok" json <> Some (Json.Bool true) then begin
        fail_direct ();
        Printf.eprintf "rdbench: error response: %s\n%!" (Json.to_string json);
        None
      end
      else
        let server_us =
          Option.value ~default:0
            (Option.bind (Json.member "elapsed_us" json) Json.to_int)
        in
        Some (json, client_us, float_of_int server_us)

(* Every fourth read is re-answered in process from the same snapshot;
   the wire answer must be identical. *)
let check_read env req json =
  let direct = Serve.Query.eval (current env) req in
  match (direct, Json.member "result" json) with
  | Ok payload, Some wire ->
      check
        (Json.to_string (Protocol.payload_to_json payload) = Json.to_string wire)
        "wire read differs from the in-process answer"
  | _ -> check false "read answer missing"

let same_churn = same_everywhere "churn_fingerprint"

(* Latency samples pooled over a run's passes (untraced and traced
   passes apart), so the tails rest on every sample. *)
type latencies = {
  mutable churn_ms : float list;
  mutable read_us : float list;
  mutable eval_us : float list;
  mutable wire_us : float list;
  mutable whatif_ms : float list;
}

let new_latencies () =
  { churn_ms = []; read_us = []; eval_us = []; wire_us = []; whatif_ms = [] }

let untraced_latencies = new_latencies ()

let traced_latencies = new_latencies ()

let serve_pass args env p =
  let rng = Random.State.make [| args.seed; 2 |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let prefixes =
    Array.of_list (List.map fst (Snapshot.states (current env)))
  in
  let s = if p.traced then traced_latencies else untraced_latencies in
  let reconv = ref 0 and warm = ref 0 and cold = ref 0 and fp = ref 0 in
  List.iteri
    (fun i ev ->
      let r, dt =
        call p ~layer:"stream" ~metric:"stream.apply_s" ~sample:false
          "churn_apply" (fun () ->
            Serve.Churn.apply env.store [ ev ])
      in
      incr direct_ops;
      s.churn_ms <- (dt *. 1e3) :: s.churn_ms;
      (match r with
      | Error e ->
          fail_direct ();
          check false ("churn apply failed: " ^ e)
      | Ok rep ->
          let open Stream.Replay in
          check (rep.quarantine = []) "churn left prefixes in quarantine";
          reconv := !reconv + rep.reconvergences;
          fp := rep.fingerprint;
          List.iter
            (fun (_, cs) ->
              warm := !warm + cs.cs_warm;
              cold := !cold + cs.cs_cold)
            rep.classes);
      for j = 1 to reads_per_event do
        let req =
          if Random.State.bool rng then
            Protocol.Path { prefix = pick prefixes; asn = pick env.ases }
          else Protocol.Catchment { egress = pick env.ases; prefix = Some (pick prefixes) }
        in
        match
          call_ p ~layer:"serve" ~sample:false "read" (fun () -> request env req)
        with
        | None -> ()
        | Some (json, client_us, server_us) ->
            s.read_us <- client_us :: s.read_us;
            s.eval_us <- server_us :: s.eval_us;
            s.wire_us <- (client_us -. server_us) :: s.wire_us;
            if j mod 4 = 0 then checked (fun () -> check_read env req json)
      done;
      if (i + 1) mod whatif_every = 0 then begin
        let a, b = pick env.edges in
        let snap = current env in
        let before =
          checked (fun () -> (snapshot_fingerprint snap, net_fingerprint env))
        in
        (match
           call_ p ~layer:"serve" ~sample:false "whatif" (fun () ->
               request env (Protocol.Whatif { a; b }))
         with
        | None -> ()
        | Some (_, client_us, _) -> s.whatif_ms <- (client_us /. 1e3) :: s.whatif_ms);
        checked (fun () ->
            check
              ((snapshot_fingerprint snap, net_fingerprint env) = before)
              "what-if changed the published snapshot")
      end)
    env.stream;
  sample_live p;
  same_churn string_of_int !fp;
  set p "stream.reconvergences" (float_of_int !reconv);
  set p "stream.warm" (float_of_int !warm);
  set p "stream.cold" (float_of_int !cold)

(* The latency line: median and deepest supported tail of each latency,
   with the sample counts behind them. *)
let latency_summary s =
  let stat name unit_ xs =
    if xs = [] then []
    else
      let v, p, beyond = M.tail xs in
      Printf.sprintf "\"%s_p50_%s\":%.3f" name unit_ (M.median xs)
      :: (if p > 50 then
            [ Printf.sprintf "\"%s_p%d_%s\":%.3f,\"%s_beyond_tail\":%d" name
                p unit_ v name beyond ]
          else [])
      @ [ Printf.sprintf "\"%s_samples\":%d" name (List.length xs) ]
  in
  Printf.sprintf "{\"latency\":{%s}}"
    (String.concat ","
       (stat "churn" "ms" s.churn_ms @ stat "read" "us" s.read_us
       @ stat "whatif" "ms" s.whatif_ms))

let latency_values s =
  let med = function [] -> 0.0 | xs -> M.median xs in
  let tail = function [] -> 0.0 | xs -> (fun (v, _, _) -> v) (M.tail xs) in
  [ ("serve.churn_p50_ms", med s.churn_ms);
    ("serve.churn_tail_ms", tail s.churn_ms);
    ("serve.read_p50_us", med s.read_us);
    ("serve.read_tail_us", tail s.read_us);
    ("serve.eval_us", med s.eval_us);
    ("serve.wire_us", med s.wire_us);
    ("serve.whatif_p50_ms", med s.whatif_ms) ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                   *)
(* ------------------------------------------------------------------ *)

let layers =
  [ "bgp"; "netgen"; "topology"; "simulator"; "asmodel"; "refine";
    "evaluation"; "stream"; "serve"; "obs" ]

let layer_of_span = function
  | "bench.parse" | "bench.write" -> "bgp"
  | "bench.observe" -> "netgen"
  | "bench.prepare" -> "topology"
  | "bench.split" | "bench.predict" | "predict.evaluate" | "agreement.grade" ->
      "evaluation"
  | "bench.initial" -> "asmodel"
  | "bench.refine" | "refiner.refine" | "refiner.iteration" -> "refine"
  | "pool.map" | "pool.slot" | "engine.simulate" -> "simulator"
  | "bench.churn_apply" -> "stream"
  | "bench.read" | "bench.whatif" -> "serve"
  | "bench.gc_stat" -> "obs"
  | "bench.check" -> "check"
  | _ -> "bench"

(* Unit of every per-layer metric, in output order. *)
let per_layer_units =
  [ ("bgp.parse_s", "s"); ("bgp.write_s", "s"); ("bgp.records", "count");
    ("netgen.build_s", "s"); ("netgen.observe_s", "s");
    ("topology.prepare_s", "s");
    ("simulator.runs", "count"); ("simulator.events", "count");
    ("simulator.busy_s", "s"); ("simulator.us_per_run", "us");
    ("simulator.events_per_s", "1/s"); ("simulator.warm_frac", "ratio");
    ("simulator.pool_wall_s", "s"); ("simulator.pool_idle_frac", "ratio");
    ("simulator.pool_retried", "count"); ("simulator.pool_failed", "count");
    ("refine.iterations", "count"); ("refine.presim_s", "s");
    ("refine.mutate_s", "s"); ("refine.final_pass_s", "s");
    ("refine.final_pass_runs", "count"); ("refine.states_mb", "MB");
    ("asmodel.nodes", "count"); ("asmodel.sessions", "count");
    ("asmodel.filters", "count"); ("asmodel.med_rules", "count");
    ("evaluation.split_s", "s"); ("evaluation.predict_s", "s");
    ("evaluation.train_match_frac", "ratio");
    ("evaluation.predict_exact_frac", "ratio");
    ("evaluation.predict_tiebreak_frac", "ratio");
    ("stream.apply_s", "s"); ("stream.reconvergences", "count");
    ("stream.warm", "count"); ("stream.cold", "count");
    ("serve.snapshot_s", "s"); ("serve.states_mb", "MB");
    ("serve.eval_us", "us"); ("serve.wire_us", "us");
    ("serve.whatif_resume_hits", "count"); ("serve.churn_p50_ms", "ms");
    ("serve.churn_tail_ms", "ms"); ("serve.read_p50_us", "us");
    ("serve.read_tail_us", "us"); ("serve.whatif_p50_ms", "ms") ]
  @ List.map (fun l -> (l ^ ".self_s", "s")) (layers @ [ "bench" ])
  @ [ ("bench.check_s", "s") ]
  @ List.map (fun l -> (l ^ ".alloc_mb", "MB"))
      [ "bgp"; "netgen"; "topology"; "asmodel"; "refine"; "evaluation";
        "stream"; "serve" ]
  @ [ ("gc.live_mb", "MB"); ("gc.top_heap_mb", "MB");
      ("obs.trace_overhead_frac", "ratio"); ("obs.attributed_frac", "ratio");
      ("obs.spans", "count") ]

let histogram_sum name =
  match Obs.Metrics.value name with
  | Some (Obs.Metrics.Histogram { sum; _ }) -> sum
  | _ -> 0

(* Obs.Metrics readings the pass deltas are taken from. *)
type obs_mark = {
  runs : int;
  events : int;
  hits : int;
  slot_us : int;
  retried : int;
  pfailed : int;
  whatif_hits : int;
}

let obs_mark () =
  { runs = counter "engine.runs"; events = counter "engine.events_drained";
    hits = counter "engine.warm_resume_hits";
    slot_us = histogram_sum "pool.slot_us"; retried = counter "pool.retried";
    pfailed = counter "pool.failed";
    whatif_hits = counter "serve.whatif_resume_hits" }

let simulator_values p ~jobs (m0 : obs_mark) (m1 : obs_mark) ~pool_wall_s =
  let runs = m1.runs - m0.runs in
  let busy_s = float_of_int (m1.slot_us - m0.slot_us) /. 1e6 in
  let events = m1.events - m0.events in
  set p "simulator.runs" (float_of_int runs);
  set p "simulator.events" (float_of_int events);
  set p "simulator.busy_s" busy_s;
  set p "simulator.us_per_run"
    (if runs = 0 then 0.0 else busy_s *. 1e6 /. float_of_int runs);
  set p "simulator.events_per_s"
    (if busy_s = 0.0 then 0.0 else float_of_int events /. busy_s);
  set p "simulator.warm_frac"
    (if runs = 0 then 0.0 else float_of_int (m1.hits - m0.hits) /. float_of_int runs);
  set p "simulator.pool_wall_s" pool_wall_s;
  set p "simulator.pool_idle_frac"
    (if pool_wall_s = 0.0 then 0.0
     else Float.max 0.0 (1.0 -. (busy_s /. (pool_wall_s *. float_of_int jobs))));
  set p "simulator.pool_retried" (float_of_int (m1.retried - m0.retried));
  set p "simulator.pool_failed" (float_of_int (m1.pfailed - m0.pfailed));
  set p "serve.whatif_resume_hits" (float_of_int (m1.whatif_hits - m0.whatif_hits))

(* Read the traced pass back from the trace file: self time per layer,
   pool wall, span coverage of the pass, and the refinement split
   against the refiner's own span. *)
let trace_values args p ~main_tid =
  let path = run_file "trace.json" in
  Obs.Trace.write_file path;
  let spans = M.read_spans path in
  Sys.remove path;
  set p "obs.spans" (float_of_int (List.length spans));
  check (Obs.Trace.dropped () = 0) "trace buffer dropped spans";
  let self = Hashtbl.create 16 in
  let roots = M.forest ~tid:main_tid spans in
  List.iter
    (M.iter_tree (fun s -> bump self (layer_of_span s.M.sname) (float_of_int (M.self_us s))))
    roots;
  let self_of l = Option.value ~default:0.0 (Hashtbl.find_opt self l) in
  List.iter (fun l -> set p (l ^ ".self_s") (self_of l /. 1e6)) (layers @ [ "bench" ]);
  let pool_us =
    List.fold_left
      (fun a s -> if s.M.sname = "pool.map" then a + s.M.dur else a)
      0 spans
  in
  let pass_us =
    List.fold_left
      (fun a s -> if s.M.sname = "bench.pass" then a + s.M.dur else a)
      0 roots
  in
  set p "bench.check_s" (self_of "check" /. 1e6);
  (* Share of the pass (checks and heap sampling excluded) spent inside
     some layer span. *)
  let attributed =
    1.0
    -. self_of "bench"
       /. Float.max 1.0 (float_of_int pass_us -. self_of "check" -. self_of "obs")
  in
  set p "obs.attributed_frac" attributed;
  if args.workload <> "serve-churn" then
    check
      (attributed >= 1.0 -. attribution_tolerance)
      (Printf.sprintf "layer spans cover %.4f of the traced pass" attributed);
  (if args.workload = "refine" then
     match List.find_opt (fun s -> s.M.sname = "refiner.refine") spans with
     | None -> check false "no refiner.refine span"
     | Some s ->
         let span_s = float_of_int s.M.dur /. 1e6 in
         let split_s =
           Hashtbl.find p.values "refine.presim_s"
           +. Hashtbl.find p.values "refine.mutate_s"
           +. Hashtbl.find p.values "refine.final_pass_s"
         in
         check
           (Float.abs (split_s -. span_s) <= Float.max 0.005 (attribution_tolerance *. span_s))
           (Printf.sprintf "refinement split %.4f s vs refiner.refine span %.4f s"
              split_s span_s));
  float_of_int pool_us /. 1e6

(* The per-layer values of one pass, with zeros for layers the workload
   does not exercise. *)
let layer_metrics p =
  let walls = List.of_seq (Hashtbl.to_seq p.walls) in
  List.map
    (fun (name, unit_) ->
      let value =
        match Hashtbl.find_opt p.values name with
        | Some v -> v
        | None -> (
            match List.assoc_opt name walls with
            | Some v -> v
            | None ->
                if String.ends_with ~suffix:".alloc_mb" name then
                  let layer = String.sub name 0 (String.index name '.') in
                  M.mb_of_words
                    (Option.value ~default:0.0 (Hashtbl.find_opt p.allocs layer))
                else if name = "gc.live_mb" then p.live_mb
                else 0.0)
      in
      { M.name; unit_; value })
    per_layer_units

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type workload =
  | Refine of refine_env
  | Observe of Groundtruth.world
  | Serve of serve_env

let setup args =
  match args.workload with
  | "refine" -> Refine (refine_setup args)
  | "observe" -> Observe (observe_setup args)
  | _ -> Serve (serve_setup args)

(* Every set-up of a run must produce the same inputs. *)
let same_setup = same_everywhere "setup_digest"

let setup_digest = function
  | Refine env -> Digest.to_hex (Digest.file env.dump)
  | Observe w -> string_of_int (Net.structure_fingerprint w.Groundtruth.net)
  | Serve env ->
      let n, s, f, m = model_counts env.model in
      Printf.sprintf "%d/%d/%d/%d" n s f m

let discard = function
  | Refine env -> Sys.remove env.dump
  | Observe _ -> ()
  | Serve env -> serve_teardown env

let one_pass args wl p =
  let main_tid = (Domain.self () :> int) in
  if p.traced then Obs.Trace.reset ();
  Obs.Trace.set_mode (if p.traced then Obs.Trace.File "unused" else Obs.Trace.Off);
  let m0 = obs_mark () in
  let sp = Obs.Trace.begin_span ~args:[ ("run", p.run) ] "bench.pass" in
  let c0 = !aside_s in
  let t0 = M.now () in
  let finish =
    match wl with
    | Refine env ->
        let r = refine_pass args env p in
        fun () -> refine_check p r
    | Observe world ->
        let r = observe_pass world p in
        fun () -> observe_check p r
    | Serve env ->
        serve_pass args env p;
        Fun.id
  in
  let wall = M.now () -. t0 -. (!aside_s -. c0) in
  Obs.Trace.end_span sp;
  Obs.Trace.set_mode Obs.Trace.Off;
  let m1 = obs_mark () in
  finish ();
  if p.traced then begin
    let pool_wall_s = trace_values args p ~main_tid in
    simulator_values p ~jobs:(jobs_of args) m0 m1 ~pool_wall_s;
    let top = (Gc.quick_stat ()).Gc.top_heap_words in
    set p "gc.top_heap_mb" (M.mb_of_words (float_of_int top))
  end;
  wall

let provenance args wl =
  let fields =
    match wl with
    | Refine env ->
        [ ("family", "paper"); ("scale", Printf.sprintf "%g" refine_scale);
          ("ases", string_of_int env.ases);
          ("prefixes", string_of_int env.prefixes);
          ("dump_bytes", string_of_int env.dump_bytes) ]
    | Observe w ->
        [ ("family", Netgen.Family.to_string w.Groundtruth.topo.Netgen.Gentopo.conf.Conf.family);
          ("ases", string_of_int (world_ases w));
          ("prefixes", string_of_int (List.length w.Groundtruth.prefix_plan));
          ("nodes", string_of_int (Net.node_count w.Groundtruth.net));
          ("sessions", string_of_int (Net.session_count w.Groundtruth.net)) ]
    | Serve env ->
        let n, s, f, m = model_counts env.model in
        [ ("family", "paper"); ("scale", Printf.sprintf "%g" serve_scale);
          ("ases", string_of_int env.world_ases);
          ("quasi_routers", string_of_int n); ("sessions", string_of_int s);
          ("filters", string_of_int f); ("med_rules", string_of_int m);
          ("prefixes", string_of_int (List.length env.model.Qrmodel.prefixes));
          ("events_per_pass", string_of_int (List.length env.stream));
          ("reads_per_event", string_of_int reads_per_event);
          ("whatif_every", string_of_int whatif_every) ]
  in
  let fields =
    [ ("workload", args.workload); ("seed", string_of_int args.seed);
      ("jobs", string_of_int (jobs_of args)) ]
    @ fields @ List.rev !outputs
  in
  Json.to_string
    (Json.Obj [ ("provenance", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) fields)) ])

let main () =
  let args = parse_args (List.tl (Array.to_list Sys.argv)) in
  let rt = Simulator.Runtime.of_env () in
  Simulator.Runtime.set
    { rt with Simulator.Runtime.jobs = Some (jobs_of args);
      check = Simulator.Runtime.Check_mode.Off;
      warm = Simulator.Runtime.Warm_mode.On;
      trace = Obs.Trace.Off };
  (* Injected faults ([RD_FAULTS], for checking the failure accounting)
     apply to the timed phase only: set-up must produce the inputs. *)
  Simulator.Runtime.set_faults None;
  let probes = M.start_probes () in
  let wl, first_setup = M.timed (fun () -> setup args) in
  let first_setup = (first_setup, first_setup *. M.speed_factor probes) in
  same_setup Fun.id (setup_digest wl);
  (* Timed phase. *)
  Simulator.Runtime.set_faults rt.Simulator.Runtime.faults;
  let tasks0 = counter "pool.tasks" and failed0 = failed_tasks () in
  let t_end = M.now () +. args.seconds in
  let untraced = ref [] and traced = ref [] in
  let rec loop k =
    let tracing = args.trace && k mod 2 = 1 in
    let p =
      new_pass (Printf.sprintf "%s/%d/%d" args.workload args.seed k) tracing
    in
    (* Every pass and set-up starts from a collected heap, so neither
       pays for its predecessor's garbage. *)
    Gc.full_major ();
    let raw = one_pass args wl p in
    let wall = (raw, raw *. M.speed_factor probes) in
    if tracing then traced := (wall, p) :: !traced
    else untraced := wall :: !untraced;
    let enough = !untraced <> [] && ((not args.trace) || !traced <> []) in
    if not (enough && M.now () >= t_end) then loop (k + 1)
  in
  loop 0;
  Simulator.Runtime.set_faults None;
  let peak_rss_mb = M.peak_rss_mb () in
  let attempted = counter "pool.tasks" - tasks0 + !direct_ops in
  let failed = failed_tasks () - failed0 + !direct_failed in
  let serve_states_mb =
    match wl with
    | Serve env when args.trace ->
        M.reachable_mb (Snapshot.states (current env))
    | _ -> 0.0
  in
  print_endline (provenance args wl);
  discard wl;
  (* Further set-ups, for the median set-up time.  They run after the
     peak RSS is read, so the process's peak is one set-up plus the
     timed phase. *)
  let rec more_setups times spent =
    let n = List.length times + 1 in
    if n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then
      times
    else begin
      Gc.full_major ();
      let wl, raw = M.timed (fun () -> setup args) in
      same_setup Fun.id (setup_digest wl);
      discard wl;
      more_setups (raw :: times) (spent +. raw)
    end
  in
  let series = more_setups [] (fst first_setup) in
  let factor = M.speed_factor probes in
  let setups = first_setup :: List.rev_map (fun raw -> (raw, raw *. factor)) series in
  let untraced = List.rev !untraced and traced = List.rev !traced in
  let setup_s = M.median (List.map snd setups) in
  let wall_s = M.median (List.map snd untraced) in
  let tail_v, tail_p, beyond = M.tail (List.map snd untraced) in
  let floats l = String.concat "," (List.map (Printf.sprintf "%.4f") l) in
  (* The samples behind the result: set-up and pass times as measured,
     the probes, and the pass tail at the reference speed. *)
  Printf.printf
    "{\"timing\":{\"setup_raw_s\":[%s],\"pass_raw_s\":[%s],\
     \"probe_s\":[%s],\"passes\":%d,\"pass_p%d_s\":%.6f,\"beyond\":%d}}\n"
    (floats (List.map fst setups))
    (floats (List.map fst untraced))
    (floats (List.rev probes.M.all))
    (List.length untraced) tail_p tail_v beyond;
  (match wl with
  | Serve _ ->
      print_endline
        (latency_summary
           (if args.trace then traced_latencies else untraced_latencies))
  | _ -> ());
  let metrics =
    if not args.trace then
      [ { M.name = "setup_s"; unit_ = "s"; value = setup_s };
        { M.name = "wall_s"; unit_ = "s"; value = wall_s };
        { M.name = "peak_rss_mb"; unit_ = "MB"; value = peak_rss_mb } ]
    else begin
      let per_pass = List.map (fun (_, p) -> layer_metrics p) traced in
      let median_of name =
        M.median
          (List.map
             (fun ms -> (List.find (fun x -> x.M.name = name) ms).M.value)
             per_pass)
      in
      let serve_latencies = latency_values traced_latencies in
      let traced_wall = M.median (List.map (fun ((_, w), _) -> w) traced) in
      List.map
        (fun (m : M.metric) ->
          let value =
            match (m.M.name, wl) with
            | "obs.trace_overhead_frac", _ -> (traced_wall /. wall_s) -. 1.0
            | "netgen.build_s", Observe _ -> M.median (List.map fst setups)
            | "serve.snapshot_s", Serve env -> env.snapshot_s
            | "serve.states_mb", _ -> serve_states_mb
            | name, Serve _ when List.mem_assoc name serve_latencies ->
                List.assoc name serve_latencies
            | name, _ -> median_of name
          in
          { m with M.value })
        (List.hd per_pass)
    end
  in
  let correct =
    if args.expect_failures then failed > 0
    else !check_failures = [] && failed = 0
  in
  print_endline
    (M.result_line ~correct ~attempted:(max 1 attempted) ~failed metrics);
  exit (if correct then 0 else 1)

let () = main ()

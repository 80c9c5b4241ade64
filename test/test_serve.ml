(* Tests for the query service: JSON codec, wire protocol, frozen
   snapshots, the query evaluator and the socket server. *)

open Bgp
module Net = Simulator.Net
module Qrmodel = Asmodel.Qrmodel
module Json = Serve.Json
module Protocol = Serve.Protocol
module Snapshot = Serve.Snapshot
module Query = Serve.Query
module Server = Serve.Server
module Ownership = Analysis.Ownership

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

(* -- JSON ------------------------------------------------------------- *)

let json_roundtrip () =
  let v =
    Json.Obj
      [
        ("i", Json.Int 42);
        ("neg", Json.Int (-7));
        ("f", Json.Float 1.5);
        ("s", Json.String "a \"quoted\"\nline");
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' ->
      check_bool "round trip" true (v = v');
      check_bool "member" true (Json.member "i" v' = Some (Json.Int 42));
      check_bool "to_int" true (Json.to_int (Json.Int 42) = Some 42);
      check_bool "to_str" true
        (Option.bind (Json.member "s" v') Json.to_str
        = Some "a \"quoted\"\nline")

let json_rejects_garbage () =
  List.iter
    (fun s -> check_bool s true (Result.is_error (Json.of_string s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* -- protocol --------------------------------------------------------- *)

let request_roundtrip () =
  let reqs =
    [
      Protocol.Path { prefix = Asn.origin_prefix 3; asn = 5 };
      Protocol.Catchment { egress = 1; prefix = Some (Asn.origin_prefix 2) };
      Protocol.Catchment { egress = 4; prefix = None };
      Protocol.Whatif { a = 4; b = 5 };
      Protocol.Ping;
      Protocol.Reload;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Protocol.request_of_string (Protocol.request_to_string req) with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok req' -> check_bool "request round trip" true (req = req'))
    reqs;
  check_bool "unknown op rejected" true
    (Result.is_error (Protocol.request_of_string {|{"op":"frobnicate"}|}));
  check_bool "bad prefix rejected" true
    (Result.is_error
       (Protocol.request_of_string {|{"op":"path","prefix":"x","as":5}|}))

let framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Protocol.write_frame a "hello";
  Protocol.write_frame a "";
  check_bool "first frame" true (Protocol.read_frame b = Ok (Some "hello"));
  check_bool "empty frame" true (Protocol.read_frame b = Ok (Some ""));
  Unix.close a;
  check_bool "clean EOF" true (Protocol.read_frame b = Ok None);
  Unix.close b;
  (* A truncated frame is an error, not an EOF. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "short" 0 5);
  Unix.close a;
  check_bool "truncated frame" true (Result.is_error (Protocol.read_frame b));
  Unix.close b

let read_timeout () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A complete frame is unaffected by the deadline. *)
  Protocol.write_frame a "hello";
  check_bool "whole frame passes" true
    (Protocol.read_frame ~deadline_ms:200 b = Ok (Some "hello"));
  (* A peer stalling mid-frame times out with the dedicated error
     instead of pinning the reader. *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write a header 0 4);
  ignore (Unix.write_substring a "stall" 0 5);
  let t0 = Unix.gettimeofday () in
  (match Protocol.read_frame ~deadline_ms:100 b with
  | Error msg ->
      check_bool "timeout error message" true (msg = Protocol.read_timeout_msg)
  | Ok _ -> Alcotest.fail "mid-frame stall should time out");
  check_bool "timed out promptly" true (Unix.gettimeofday () -. t0 < 5.0);
  Unix.close a;
  Unix.close b

(* -- snapshot + queries ----------------------------------------------- *)

let build_snapshot ?jobs () =
  let m = Qrmodel.initial graph in
  Snapshot.build ?jobs m

let snapshot_queries () =
  let snap = build_snapshot () in
  check_bool "converged" true (Snapshot.converged snap);
  check_int "all prefixes cached" 5 (List.length (Snapshot.states snap));
  (match Query.eval snap Protocol.Ping with
  | Ok (Protocol.Pong { prefixes; nodes }) ->
      check_int "pong prefixes" 5 prefixes;
      check_int "pong nodes" 5 nodes
  | _ -> Alcotest.fail "ping failed");
  (* Path answers come from the cached state, and match a fresh
     simulation. *)
  let p3 = Asn.origin_prefix 3 in
  (match Query.eval snap (Protocol.Path { prefix = p3; asn = 5 }) with
  | Ok (Protocol.Paths { paths; _ }) ->
      let m = Snapshot.model snap in
      let fresh = Qrmodel.simulate m p3 in
      check_bool "paths match fresh simulation" true
        (paths = Simulator.Engine.selected_paths m.Qrmodel.net fresh 5)
  | _ -> Alcotest.fail "path query failed");
  check_bool "unknown prefix is an error" true
    (Result.is_error
       (Query.eval snap
          (Protocol.Path
             { prefix = Prefix.of_string_exn "99.0.0.0/8"; asn = 5 })));
  (* Catchment: AS 5 reaches 3 via 4, so 5 is in 4's catchment for p3. *)
  match Query.eval snap (Protocol.Catchment { egress = 4; prefix = Some p3 }) with
  | Ok (Protocol.Catchment_members { members = [ (p, ases) ]; _ }) ->
      check_bool "prefix echoed" true (p = p3);
      check_bool "AS 5 transits 4" true (List.mem 5 ases);
      check_bool "egress not a member" false (List.mem 4 ases)
  | _ -> Alcotest.fail "catchment query failed"

let whatif_query_restores () =
  let snap = build_snapshot () in
  let m = Snapshot.model snap in
  let denies0, _ = Net.count_policies m.Qrmodel.net in
  let run () =
    match Query.eval snap (Protocol.Whatif { a = 4; b = 5 }) with
    | Ok (Protocol.Whatif_summary _ as payload) -> payload
    | Ok _ -> Alcotest.fail "unexpected payload"
    | Error e -> Alcotest.failf "whatif failed: %s" e
  in
  let p1 = run () in
  (match p1 with
  | Protocol.Whatif_summary { half_sessions; prefixes_affected; resume_hits; _ }
    ->
      check_int "two half-sessions" 2 half_sessions;
      check_bool "something changed" true (prefixes_affected > 0);
      check_bool "deltas resumed warm" true (resume_hits > 0)
  | _ -> ());
  (* The net is restored exactly: no leftover denies, and the live
     selected paths equal the published baseline. *)
  let denies1, _ = Net.count_policies m.Qrmodel.net in
  check_int "denies restored" denies0 denies1;
  let live = Asmodel.Whatif.of_states m (Snapshot.states snap) in
  let d = Asmodel.Whatif.diff (Snapshot.baseline snap) live in
  check_int "baseline intact" 0 d.Asmodel.Whatif.prefixes_affected;
  (* Repeatable: the second run sees the same world. *)
  let p2 = run () in
  check_bool "second run identical" true (p1 = p2);
  (* An unknown link is a zero-impact summary, not an error. *)
  match Query.eval snap (Protocol.Whatif { a = 2; b = 5 }) with
  | Ok (Protocol.Whatif_summary { half_sessions = 0; prefixes_affected = 0; _ })
    ->
      ()
  | _ -> Alcotest.fail "unknown link should be a zero summary"

let run_batch_orders_results () =
  let snap = build_snapshot () in
  let p2 = Asn.origin_prefix 2 in
  let reqs =
    [
      Protocol.Ping;
      Protocol.Whatif { a = 4; b = 5 };
      Protocol.Path { prefix = p2; asn = 4 };
      Protocol.Catchment { egress = 1; prefix = Some p2 };
    ]
  in
  let batch = Query.run_batch ~deadline_ms:0 snap reqs in
  check_int "one response per request" (List.length reqs) (List.length batch);
  List.iter2
    (fun req resp ->
      let solo = Query.eval snap req in
      check_bool "batch result matches solo eval" true
        (resp.Protocol.result = solo))
    reqs batch

(* -- wire server ------------------------------------------------------ *)

let with_server f =
  let path = Filename.temp_file "serve_test" ".sock" in
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let srv = Server.start ~deadline_ms:0 ~store (Server.Unix_path path) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv;
      (try Sys.remove path with Sys_error _ -> ());
      match Snapshot.current store with
      | Some snap -> Snapshot.retire snap
      | None -> ())
    (fun () -> f path)

let server_loopback () =
  with_server (fun path ->
      let conn =
        match Server.connect (Server.Unix_path path) with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect failed: %s" e
      in
      let ask req =
        match Server.request conn req with
        | Ok json -> json
        | Error e -> Alcotest.failf "request failed: %s" e
      in
      let pong = ask Protocol.Ping in
      check_bool "ok" true (Json.member "ok" pong = Some (Json.Bool true));
      check_bool "prefixes" true
        (Option.bind (Json.member "result" pong) (fun r ->
             Option.bind (Json.member "prefixes" r) Json.to_int)
        = Some 5);
      let paths =
        ask (Protocol.Path { prefix = Asn.origin_prefix 3; asn = 5 })
      in
      check_bool "path ok" true
        (Json.member "ok" paths = Some (Json.Bool true));
      (* AS 5 reaches 3 via 4: the selected path is [5;4;3]. *)
      (match
         Option.bind (Json.member "result" paths) (fun r ->
             Option.bind (Json.member "paths" r) Json.to_list)
       with
      | Some [ Json.List hops ] ->
          check_bool "hops" true
            (List.filter_map Json.to_int hops = [ 5; 4; 3 ])
      | _ -> Alcotest.fail "unexpected paths shape");
      Server.close_conn conn)

let server_shutdown_stops () =
  let path = Filename.temp_file "serve_test" ".sock" in
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let srv = Server.start ~deadline_ms:0 ~store (Server.Unix_path path) in
  let conn = Result.get_ok (Server.connect (Server.Unix_path path)) in
  (match Server.request conn Protocol.Shutdown with
  | Ok json ->
      check_bool "closing acknowledged" true
        (Json.member "ok" json = Some (Json.Bool true))
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  Server.close_conn conn;
  (* wait returns: the accept loop observed the shutdown. *)
  Server.wait srv;
  check_bool "socket unlinked" false (Sys.file_exists path);
  (match Snapshot.current store with
  | Some snap -> Snapshot.retire snap
  | None -> ());
  try Sys.remove path with Sys_error _ -> ()

(* -- churn: rebuild-and-swap ------------------------------------------ *)

let reload_swaps_snapshot () =
  let store = Snapshot.store () in
  check_bool "no snapshot yet" true
    (Result.is_error (Serve.Churn.reload store));
  let snap0 = build_snapshot () in
  Snapshot.publish store snap0;
  (match Serve.Churn.reload store with
  | Ok (Protocol.Reloaded { prefixes; resume_hits; _ }) ->
      check_int "all prefixes rebuilt" 5 prefixes;
      check_bool "rebuild resumed warm" true (resume_hits > 0)
  | Ok _ -> Alcotest.fail "unexpected payload"
  | Error e -> Alcotest.failf "reload failed: %s" e);
  let snap1 =
    match Snapshot.current store with
    | Some s -> s
    | None -> Alcotest.fail "store empty after reload"
  in
  check_bool "a fresh snapshot was published" true (not (snap1 == snap0));
  (* The old snapshot is retired; the new one answers identically. *)
  check_bool "old snapshot retired" true
    (match Snapshot.exclusive snap0 (fun () -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false);
  (match Query.eval snap1 Protocol.Ping with
  | Ok (Protocol.Pong { prefixes = 5; _ }) -> ()
  | _ -> Alcotest.fail "new snapshot does not answer");
  check_bool "reload via bare Query.eval refused" true
    (Result.is_error (Query.eval snap1 Protocol.Reload));
  Snapshot.retire snap1

let churn_apply_publishes () =
  let store = Snapshot.store () in
  let snap0 = build_snapshot () in
  Snapshot.publish store snap0;
  let p3 = Asn.origin_prefix 3 in
  let baseline =
    match Query.eval snap0 (Protocol.Path { prefix = p3; asn = 5 }) with
    | Ok (Protocol.Paths { paths; _ }) -> paths
    | _ -> Alcotest.fail "baseline path query failed"
  in
  (* A paired stream (down then up) ends back at the baseline, but must
     go through a real mid-stream disruption. *)
  let events =
    [
      Stream.Event.make ~ts_ms:0 (Stream.Event.Session_down { a = 4; b = 5 });
      Stream.Event.make ~ts_ms:10 (Stream.Event.Session_up { a = 4; b = 5 });
    ]
  in
  (match Serve.Churn.apply store events with
  | Ok report ->
      check_int "both events applied" 2 report.Stream.Replay.events;
      check_int "no quarantine" 0
        (List.length report.Stream.Replay.quarantine)
  | Error e -> Alcotest.failf "churn apply failed: %s" e);
  let snap1 = Option.get (Snapshot.current store) in
  check_bool "swap happened" true (not (snap1 == snap0));
  (match Query.eval snap1 (Protocol.Path { prefix = p3; asn = 5 }) with
  | Ok (Protocol.Paths { paths; _ }) ->
      check_bool "post-churn snapshot matches baseline" true (paths = baseline)
  | _ -> Alcotest.fail "post-churn path query failed");
  Snapshot.retire snap1

(* A client that hangs up before reading its response must cost only
   that connection: SIGPIPE is ignored in Server.start, so the write
   fails with EPIPE and the server keeps answering (without it the
   signal killed the whole process — a per-connection exception handler
   cannot catch a signal). *)
let client_disconnect_keeps_serving () =
  with_server (fun path ->
      for _ = 1 to 5 do
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        (* A what-if is slow enough that the server is usually still
           computing when the peer vanishes, so the response write hits
           a closed socket. *)
        Protocol.write_frame fd
          (Protocol.request_to_string (Protocol.Whatif { a = 4; b = 5 }));
        Unix.close fd
      done;
      Thread.delay 0.05;
      let conn = Result.get_ok (Server.connect (Server.Unix_path path)) in
      (match Server.request conn Protocol.Ping with
      | Ok json ->
          check_bool "still serving" true
            (Json.member "ok" json = Some (Json.Bool true))
      | Error e -> Alcotest.failf "server died after disconnects: %s" e);
      Server.close_conn conn)

(* Paired events split across Churn.apply calls must still match up:
   each apply resumes the replay driver from the snapshot's persisted
   state (before the fix the up/end half was a silent no-op, leaving
   the link down and the hijack in force forever). *)
let churn_pairs_across_applies () =
  let store = Snapshot.store () in
  let snap0 = build_snapshot () in
  let net = (Snapshot.model snap0).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  Snapshot.publish store snap0;
  let p3 = Asn.origin_prefix 3 in
  let path_now () =
    match
      Query.eval
        (Option.get (Snapshot.current store))
        (Protocol.Path { prefix = p3; asn = 5 })
    with
    | Ok (Protocol.Paths { paths; _ }) -> paths
    | _ -> Alcotest.fail "path query failed"
  in
  let baseline = path_now () in
  let apply_one ev =
    match Serve.Churn.apply store [ Stream.Event.make ~ts_ms:0 ev ] with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "apply failed: %s" e
  in
  (* Link down in one call... *)
  apply_one (Stream.Event.Session_down { a = 4; b = 5 });
  check_bool "denies placed" true (fst (Net.count_policies net) > denies0);
  check_bool "rerouted while down" true (path_now () <> baseline);
  (* ...restored by a separate call. *)
  apply_one (Stream.Event.Session_up { a = 4; b = 5 });
  check_int "denies removed by the later apply" denies0
    (fst (Net.count_policies net));
  check_bool "baseline restored" true (path_now () = baseline);
  (* Same for a MOAS hijack started and ended in different calls. *)
  apply_one (Stream.Event.Hijack { prefix = p3; attacker = 5 });
  check_bool "hijack shifted routes" true (path_now () <> baseline);
  apply_one (Stream.Event.Hijack_end { prefix = p3; attacker = 5 });
  check_bool "hijack ended across applies" true (path_now () = baseline);
  match Snapshot.current store with
  | Some s -> Snapshot.retire s
  | None -> ()

(* What-if queries keep working after churn changed the served prefix
   set: the diff joins by prefix and the simulation covers the
   snapshot's own prefixes (the old positional diff raised once a
   hijack added one, poisoning every later what-if). *)
let whatif_after_churn_hijack () =
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let p3 = Asn.origin_prefix 3 in
  let sub = Prefix.make (Prefix.network p3) (Prefix.length p3 + 1) in
  (match
     Serve.Churn.apply store
       [
         Stream.Event.make ~ts_ms:0
           (Stream.Event.Hijack { prefix = sub; attacker = 5 });
       ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "hijack apply failed: %s" e);
  let snap = Option.get (Snapshot.current store) in
  check_int "hijacked prefix tracked" 6 (List.length (Snapshot.states snap));
  let net = (Snapshot.model snap).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  let run () =
    match Query.eval snap (Protocol.Whatif { a = 4; b = 5 }) with
    | Ok (Protocol.Whatif_summary _ as p) -> p
    | Ok _ -> Alcotest.fail "unexpected payload"
    | Error e -> Alcotest.failf "whatif after churn failed: %s" e
  in
  let r1 = run () in
  check_int "net restored exactly" denies0 (fst (Net.count_policies net));
  let r2 = run () in
  check_bool "repeatable" true (r1 = r2);
  Snapshot.retire snap

(* Concurrent writers serialize on the store: the later one builds on
   the earlier one's published snapshot, so neither's effect is
   silently discarded (before the fix the second publish overwrote the
   first's applied events while both returned Ok). *)
let concurrent_apply_reload () =
  let store = Snapshot.store () in
  let snap0 = build_snapshot () in
  let net = (Snapshot.model snap0).Qrmodel.net in
  let denies0, _ = Net.count_policies net in
  Snapshot.publish store snap0;
  let apply_r = ref (Error "unset") and reload_r = ref (Error "unset") in
  let ta =
    Thread.create
      (fun () ->
        apply_r :=
          Result.map ignore
            (Serve.Churn.apply store
               [
                 Stream.Event.make ~ts_ms:0
                   (Stream.Event.Session_down { a = 4; b = 5 });
               ]))
      ()
  in
  let tb =
    Thread.create
      (fun () -> reload_r := Result.map ignore (Serve.Churn.reload store))
      ()
  in
  Thread.join ta;
  Thread.join tb;
  (match !apply_r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "apply lost the race: %s" e);
  (match !reload_r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reload lost the race: %s" e);
  (* The applied down survived both publishes... *)
  check_bool "down still in force" true (fst (Net.count_policies net) > denies0);
  (* ...and is still matchable by its up. *)
  (match
     Serve.Churn.apply store
       [ Stream.Event.make ~ts_ms:10 (Stream.Event.Session_up { a = 4; b = 5 }) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "restore failed: %s" e);
  check_int "clean restore" denies0 (fst (Net.count_policies net));
  match Snapshot.current store with
  | Some s -> Snapshot.retire s
  | None -> ()

(* The acceptance lock: queries keep succeeding while churn swaps the
   snapshot underneath them — zero dropped connections, zero errors. *)
let queries_across_reload () =
  with_server (fun path ->
      let errors = Atomic.make 0 in
      let queries = Atomic.make 0 in
      let worker _ () =
        match Server.connect (Server.Unix_path path) with
        | Error _ -> Atomic.incr errors
        | Ok conn ->
            for i = 0 to 39 do
              let req =
                match i mod 3 with
                | 0 -> Protocol.Ping
                | 1 -> Protocol.Path { prefix = Asn.origin_prefix 3; asn = 5 }
                | _ -> Protocol.Whatif { a = 4; b = 5 }
              in
              (match Server.request conn req with
              | Ok json
                when Json.member "ok" json = Some (Json.Bool true) ->
                  Atomic.incr queries
              | Ok _ | Error _ -> Atomic.incr errors);
              Thread.yield ()
            done;
            Server.close_conn conn
      in
      let threads = List.init 3 (fun i -> Thread.create (worker i) ()) in
      (* Meanwhile: repeated churn-triggered rebuild-and-swaps. *)
      let reloader = Result.get_ok (Server.connect (Server.Unix_path path)) in
      for _ = 1 to 5 do
        (match Server.request reloader Protocol.Reload with
        | Ok json when Json.member "ok" json = Some (Json.Bool true) -> ()
        | Ok json -> Alcotest.failf "reload refused: %s" (Json.to_string json)
        | Error e -> Alcotest.failf "reload failed: %s" e);
        Thread.delay 0.01
      done;
      Server.close_conn reloader;
      List.iter Thread.join threads;
      check_int "zero dropped or failed queries" 0 (Atomic.get errors);
      check_int "every query answered" 120 (Atomic.get queries))

(* -- immutability under load ------------------------------------------ *)

(* Concurrent mixed queries against one snapshot return bit-identical
   results to a sequential run, and the RD_CHECK ownership hook records
   zero violations: serving never mutates the published snapshot
   (what-if mutations are confined to the executor and reverted). *)
let concurrent_queries_immutable () =
  Ownership.reset ();
  Knobs.with_check Simulator.Runtime.Check_mode.On @@ fun () ->
  Fun.protect ~finally:Ownership.reset (fun () ->
      let snap = build_snapshot ~jobs:4 () in
      let prefixes = List.map fst (Snapshot.states snap) in
      let reqs =
        Protocol.Ping
        :: Protocol.Whatif { a = 4; b = 5 }
        :: Protocol.Whatif { a = 1; b = 2 }
        :: List.concat_map
             (fun p ->
               [
                 Protocol.Path { prefix = p; asn = 5 };
                 Protocol.Catchment { egress = 1; prefix = Some p };
               ])
             prefixes
      in
      (* resume_hits counts warm resumes of the global engine counter
         during the what-if batch; fault-injection retries can shift it
         between runs, so normalize before comparing predictions. *)
      let normalize = function
        | Ok (Protocol.Whatif_summary s) ->
            Ok (Protocol.Whatif_summary { s with resume_hits = 0 })
        | r -> r
      in
      let expected = List.map (fun r -> normalize (Query.eval snap r)) reqs in
      let results = Array.make 4 [] in
      let worker i () =
        (* Each thread walks the battery from a different offset. *)
        let n = List.length reqs in
        let rotated =
          List.init n (fun k -> List.nth reqs ((k + i) mod n))
        in
        results.(i) <-
          List.map (fun r -> (r, normalize (Query.eval snap r))) rotated
      in
      let threads = List.init 4 (fun i -> Thread.create (worker i) ()) in
      List.iter Thread.join threads;
      let by_req = List.combine reqs expected in
      Array.iter
        (List.iter (fun (req, got) ->
             check_bool "concurrent result bit-identical" true
               (got = List.assoc req by_req)))
        results;
      check_int "zero ownership violations" 0 (Ownership.violation_count ()))

(* A churn apply redoes per-prefix work only for the prefixes it
   reconverged: churn reports fingerprint every tracked state, but an
   unchanged state keeps its memo and a warm reconvergence from a
   fingerprinted state derives its value without a full hash, and the
   what-if baseline keeps the rows of unchanged states — while still
   matching a fresh derivation. *)
let churn_redoes_only_reconverged () =
  let store = Snapshot.store () in
  Snapshot.publish store (build_snapshot ());
  let apply_one ev =
    match Serve.Churn.apply store [ Stream.Event.make ~ts_ms:0 ev ] with
    | Ok report -> report
    | Error e -> Alcotest.failf "apply failed: %s" e
  in
  let baseline_is_fresh () =
    let snap = Option.get (Snapshot.current store) in
    let fresh =
      Asmodel.Whatif.of_states (Snapshot.model snap) (Snapshot.states snap)
    in
    (Asmodel.Whatif.diff (Snapshot.baseline snap) fresh)
      .Asmodel.Whatif.prefixes_affected = 0
  in
  let hashes () = Obs.Metrics.find_counter "engine.state_fingerprints" in
  ignore (apply_one (Stream.Event.Session_down { a = 4; b = 5 }));
  check_bool "baseline matches the states after down" true
    (baseline_is_fresh ());
  let h0 = hashes () in
  let p3 = Asn.origin_prefix 3 in
  let report = apply_one (Stream.Event.Hijack { prefix = p3; attacker = 5 }) in
  check_int "only the hijacked prefix reconverged" 1
    report.Stream.Replay.reconvergences;
  check_int "no full hash for a warm reconvergence" 0 (hashes () - h0);
  check_bool "baseline matches the states after the hijack" true
    (baseline_is_fresh ());
  match Snapshot.current store with
  | Some s -> Snapshot.retire s
  | None -> ()

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick json_roundtrip;
    Alcotest.test_case "json rejects garbage" `Quick json_rejects_garbage;
    Alcotest.test_case "request roundtrip" `Quick request_roundtrip;
    Alcotest.test_case "framing" `Quick framing;
    Alcotest.test_case "read timeout" `Quick read_timeout;
    Alcotest.test_case "snapshot queries" `Quick snapshot_queries;
    Alcotest.test_case "whatif query restores" `Quick
      (Knobs.resuming whatif_query_restores);
    Alcotest.test_case "run_batch orders results" `Quick
      run_batch_orders_results;
    Alcotest.test_case "server loopback" `Quick server_loopback;
    Alcotest.test_case "server shutdown stops" `Quick server_shutdown_stops;
    Alcotest.test_case "reload swaps snapshot" `Quick
      (Knobs.resuming reload_swaps_snapshot);
    Alcotest.test_case "churn apply publishes" `Quick churn_apply_publishes;
    Alcotest.test_case "client disconnect keeps serving" `Quick
      client_disconnect_keeps_serving;
    Alcotest.test_case "churn pairs across applies" `Quick
      churn_pairs_across_applies;
    Alcotest.test_case "churn redoes only reconverged prefixes" `Quick
      (Knobs.resuming churn_redoes_only_reconverged);
    Alcotest.test_case "whatif after churn hijack" `Quick
      whatif_after_churn_hijack;
    Alcotest.test_case "concurrent apply and reload" `Quick
      concurrent_apply_reload;
    Alcotest.test_case "queries across reload" `Quick queries_across_reload;
    Alcotest.test_case "concurrent queries immutable" `Quick
      concurrent_queries_immutable;
  ]

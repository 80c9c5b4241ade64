(* Tests for warm-start re-simulation: Net change tracking,
   Engine.simulate ?from equivalence with cold runs (hand-built and
   randomized), AS-path interning, the engine's reading of RD_WARM, and
   the refiner under each mode. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Intern = Simulator.Intern
module Warm_mode = Simulator.Runtime.Warm_mode
module Pool = Simulator.Pool
module Qrmodel = Asmodel.Qrmodel
module Refiner = Refine.Refiner

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let p = Asn.origin_prefix 4

(* -- Net change tracking -- *)

let line () =
  (* 1 -- 2 -- 3 *)
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let sab, _sba = Net.connect net a b in
  let sbc, _scb = Net.connect net b c in
  (net, a, b, c, sab, sbc)

let touched_tracking () =
  let net, a, b, _c, sab, sbc = line () in
  check_bool "initially empty" true (Net.touched_nodes net p = []);
  (* Import-side edits record the sending peer, not the receiver. *)
  Net.set_import_med net a sab p 0;
  check_bool "med import touches sender" true (Net.touched_nodes net p = [ b ]);
  Net.clear_import_med net a sab p;
  Net.set_import_lpref_for net a sab p 200;
  Net.clear_import_lpref_for net a sab p;
  check_bool "still just the sender (dedup)" true
    (Net.touched_nodes net p = [ b ]);
  (* Export-side edits record the exporting node itself. *)
  Net.deny_export net b sbc p;
  check_bool "deny touches exporter, sorted" true
    (Net.touched_nodes net p = [ a; b ] || Net.touched_nodes net p = [ b ]);
  check_bool "sorted ascending" true
    (let l = Net.touched_nodes net p in
     List.sort compare l = l);
  Net.allow_export net b sbc p;
  (* Other prefixes are untouched. *)
  check_bool "per-prefix isolation" true
    (Net.touched_nodes net (Asn.origin_prefix 9) = []);
  Net.clear_touched net p;
  check_bool "cleared" true (Net.touched_nodes net p = [])

let generation_tracking () =
  let net, a, _b, c, sab, _ = line () in
  let g0 = Net.generation net in
  (* Per-prefix policy edits leave the generation alone. *)
  Net.set_import_med net a sab p 0;
  Net.deny_export net a sab p;
  check_int "policy edits keep generation" g0 (Net.generation net);
  (* Structural and network-wide edits bump it. *)
  let d = Net.add_node net ~asn:9 ~ip:(Asn.router_ip 9 0) in
  check_bool "add_node bumps" true (Net.generation net > g0);
  let g1 = Net.generation net in
  ignore (Net.connect net c d);
  check_bool "connect bumps" true (Net.generation net > g1);
  let g2 = Net.generation net in
  Net.set_default_med net 50;
  Net.set_decision_steps net (Net.decision_steps net);
  Net.set_import_lpref net a sab 120;
  check_bool "global knobs bump" true (Net.generation net > g2);
  let g3 = Net.generation net in
  ignore (Net.duplicate_node net a);
  check_bool "duplicate_node bumps" true (Net.generation net > g3)

(* -- warm-resume equivalence on a hand-built scenario -- *)

(* Figure 5-style diamond: AS 1 reaches AS 4 directly and via AS 5. *)
let diamond_graph =
  Topology.Asgraph.of_edges [ (1, 2); (1, 4); (1, 5); (2, 3); (3, 4); (4, 5) ]

let check_equivalent label cold warm =
  check_bool (label ^ ": same outcome") true
    (Engine.converged cold = Engine.converged warm);
  check_bool (label ^ ": same state") true (Engine.same_state cold warm);
  check_int
    (label ^ ": same fingerprint")
    (Engine.state_fingerprint cold)
    (Engine.state_fingerprint warm)

let resume_after_policy_change () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  check_bool "cold converged" true (Engine.converged prev);
  Net.clear_touched net p;
  (* Make AS 1 prefer the longer route via 5: MED 0 on the session from
     5, and filter the direct announcement 4 -> 1. *)
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let s15 =
    match Net.find_session net n1 (List.hd (Net.nodes_of_as net 5)) with
    | Some s -> s
    | None -> Alcotest.fail "no session 1-5"
  in
  let s41 =
    match Net.find_session net n4 n1 with
    | Some s -> s
    | None -> Alcotest.fail "no session 4-1"
  in
  Net.set_import_med net n1 s15 p 0;
  Net.deny_export net n4 s41 p;
  check_bool "still resumable" true (Engine.resumable net prev);
  let touched = Net.touched_nodes net p in
  check_bool "touched nonempty" true (touched <> []);
  let warm =
    Engine.simulate ~from:prev ~touched net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  let cold = Qrmodel.simulate m p in
  check_equivalent "policy change" cold warm;
  (* The new fixed point actually changed: AS 1 now selects 1-5-4. *)
  check_bool "longer path selected" true
    (List.mem [| 1; 5; 4 |] (Engine.selected_paths net warm 1))

let resume_after_filter_removal () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let s41 =
    match Net.find_session net n4 n1 with
    | Some s -> s
    | None -> Alcotest.fail "no session 4-1"
  in
  Net.deny_export net n4 s41 p;
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  Net.allow_export net n4 s41 p;
  let warm =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  let cold = Qrmodel.simulate m p in
  check_equivalent "filter removal" cold warm;
  check_bool "direct path back" true
    (List.mem [| 1; 4 |] (Engine.selected_paths net warm 1))

let resume_noop_is_free () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  let originators = Qrmodel.originators m p in
  let counter = Obs.Metrics.find_counter in
  let fp_prev = Engine.state_fingerprint prev in
  let runs0 = counter "engine.runs" in
  let hashes0 = counter "engine.state_fingerprints" in
  let warm = Engine.simulate ~from:prev ~touched:[] net ~prefix:p ~originators in
  check_bool "resumed" true (Engine.resumed warm);
  check_int "no events" 0 (Engine.events warm);
  check_int "no engine run" runs0 (counter "engine.runs");
  check_bool "every best route shared" true
    (List.for_all (Engine.same_selected net prev warm) [ 1; 2; 3; 4; 5 ]);
  check_int "fingerprint inherited" fp_prev (Engine.state_fingerprint warm);
  check_int "no full hash" hashes0 (counter "engine.state_fingerprints");
  check_equivalent "no-op" prev warm;
  (* Verify still compares a no-op resume with a cold run; Off still
     runs cold. *)
  Knobs.with_warm Warm_mode.Verify (fun () ->
      let verified = counter "warm.verified" in
      let v = Engine.simulate ~from:prev ~touched:[] net ~prefix:p ~originators in
      check_bool "verify: resumed" true (Engine.resumed v);
      check_int "verify: compared with a cold run" (verified + 1)
        (counter "warm.verified"));
  Knobs.with_warm Warm_mode.Off (fun () ->
      let c = Engine.simulate ~from:prev ~touched:[] net ~prefix:p ~originators in
      check_bool "off: cold run" false (Engine.resumed c);
      check_equivalent "off" prev c);
  (* A replayed node whose advertisements are unchanged costs exactly
     its replay event and disturbs nothing. *)
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let warm2 =
    Engine.simulate ~from:prev ~touched:[ n4 ] net ~prefix:p ~originators
  in
  check_int "one replay event" 1 (Engine.events warm2);
  check_equivalent "unchanged replay" prev warm2

let warm_locality () =
  (* A 30-AS chain: a policy tweak at the far end disturbs only its
     neighbourhood, so the warm drain executes a handful of events
     while a cold run re-floods the whole chain. *)
  let graph = Topology.Asgraph.of_edges (List.init 29 (fun i -> (i + 1, i + 2))) in
  let m = Qrmodel.initial graph in
  let net = m.Qrmodel.net in
  let prefix = Asn.origin_prefix 1 in
  let prev = Qrmodel.simulate m prefix in
  Net.clear_touched net prefix;
  let n30 = List.hd (Net.nodes_of_as net 30) in
  let s = fst (List.hd (Net.sessions_of net n30)) in
  Net.set_import_med net n30 s prefix 0;
  let warm =
    Engine.simulate ~from:prev net ~prefix
      ~originators:(Qrmodel.originators m prefix)
  in
  let cold = Qrmodel.simulate m prefix in
  check_equivalent "chain" cold warm;
  check_bool "warm executes far fewer events" true
    (Engine.events warm * 5 < Engine.events cold)

let resumable_guards () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  check_bool "fresh state is resumable" true (Engine.resumable net prev);
  (* A truncated state is not. *)
  let truncated = Qrmodel.simulate ~max_events:1 m p in
  check_bool "truncated not resumable" false (Engine.resumable net truncated);
  (* A structural change invalidates prior states. *)
  ignore (Net.duplicate_node net (List.hd (Net.nodes_of_as net 1)));
  check_bool "stale generation not resumable" false (Engine.resumable net prev);
  (* simulate ?from falls back to a cold start silently and counts the
     miss — callers pass their cache slot unconditionally. *)
  let misses0 = Obs.Metrics.find_counter "engine.warm_resume_misses" in
  let st =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  check_bool "cold fallback converged" true (Engine.converged st);
  check_int "miss counted" (misses0 + 1)
    (Obs.Metrics.find_counter "engine.warm_resume_misses");
  let cold = Qrmodel.simulate m p in
  check_equivalent "fallback equals cold" cold st

(* -- AS-path interning -- *)

let interning () =
  let a = Intern.path [| 3; 2; 1 |] in
  let b = Intern.path [| 3; 2; 1 |] in
  check_bool "equal paths share one array" true (a == b);
  check_bool "content preserved" true (a = [| 3; 2; 1 |]);
  let e = Intern.path [||] in
  check_bool "empty is the shared atom" true (e == Intern.path [||]);
  let pr = Intern.prepend ~own_as:7 a in
  check_bool "prepend content" true (pr = [| 7; 3; 2; 1 |]);
  check_bool "prepend memoized" true (pr == Intern.prepend ~own_as:7 b);
  check_bool "prepend interned" true (pr == Intern.path [| 7; 3; 2; 1 |]);
  check_int "hash agrees with fresh array"
    (Intern.path_hash a)
    (Intern.path_hash [| 3; 2; 1 |]);
  check_bool "hash separates lengths" true
    (Intern.path_hash [| 1 |] <> Intern.path_hash [| 1; 1 |])

(* -- randomized warm/cold equivalence -- *)

(* Random connected graph plus a script of per-prefix policy edits;
   warm resumption after the edits must land on the cold fixed point. *)
let gen_scenario =
  QCheck.Gen.(
    let* n = int_range 3 12 in
    let* tree_choices = list_repeat (n - 1) (int_bound 1_000_000) in
    let* extra = int_range 0 n in
    let* extra_pairs =
      list_repeat extra (pair (int_bound 1_000_000) (int_bound 1_000_000))
    in
    let* edits = list_size (int_range 1 6) (int_bound 1_000_000) in
    let edges =
      List.mapi (fun i r -> (2 + i, 1 + (r mod (i + 1)))) tree_choices
      @ List.map (fun (a, b) -> (1 + (a mod n), 1 + (b mod n))) extra_pairs
    in
    return (Topology.Asgraph.of_edges edges, edits))

let arb_scenario =
  QCheck.make
    ~print:(fun (g, edits) ->
      Printf.sprintf "edges=%s edits=%s"
        (String.concat ","
           (List.map
              (fun (a, b) -> Printf.sprintf "%d-%d" a b)
              (Topology.Asgraph.edges g)))
        (String.concat "," (List.map string_of_int edits)))
    gen_scenario

let apply_random_edit net prefix r =
  let n = r mod Net.node_count net in
  let nsess = Net.session_count_of net n in
  if nsess = 0 then ()
  else
    let s = r / 7 mod nsess in
    match r / 3 mod 4 with
    | 0 -> Net.set_import_med net n s prefix 0
    | 1 -> Net.deny_export net n s prefix
    | 2 -> Net.allow_export net n s prefix
    | _ -> Net.clear_import_med net n s prefix

let prop_warm_equals_cold =
  QCheck.Test.make ~name:"warm resume reaches the cold fixed point" ~count:100
    arb_scenario
    (fun (graph, edits) ->
      let m = Qrmodel.initial graph in
      let net = m.Qrmodel.net in
      let prefix = fst (List.hd m.Qrmodel.prefixes) in
      let prev = Qrmodel.simulate m prefix in
      Net.clear_touched net prefix;
      List.iter (apply_random_edit net prefix) edits;
      let warm =
        Engine.simulate ~from:prev net ~prefix
          ~originators:(Qrmodel.originators m prefix)
      in
      let cold = Qrmodel.simulate m prefix in
      Engine.converged cold && Engine.converged warm
      && Engine.same_state cold warm
      && Engine.state_fingerprint cold = Engine.state_fingerprint warm
      && List.for_all
           (fun node ->
             Simulator.Rattr.same_advertisement (Engine.best cold node)
               (Engine.best warm node))
           (List.init (Net.node_count net) Fun.id))

(* -- the refiner under each mode -- *)

let fig5_training =
  let op asn = { Rib.op_ip = Asn.router_ip asn 0; op_as = asn } in
  let entry o origin path_list =
    {
      Rib.op = op o;
      prefix = Asn.origin_prefix origin;
      path = Aspath.of_list path_list;
    }
  in
  Rib.of_entries
    [ entry 1 3 [ 1; 2; 3 ]; entry 1 4 [ 1; 4 ]; entry 1 4 [ 1; 5; 4 ] ]

(* -- the engine owns the warm mode -- *)

let engine_reads_warm_mode () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  (match Net.find_session net n4 n1 with
  | Some s41 -> Net.deny_export net n4 s41 p
  | None -> Alcotest.fail "no session 4-1");
  let cold = Qrmodel.simulate m p in
  let counter = Obs.Metrics.find_counter in
  let resume mode =
    Knobs.with_warm mode (fun () ->
        let hits = counter "engine.warm_resume_hits" in
        let misses = counter "engine.warm_resume_misses" in
        let verified = counter "warm.verified" in
        let st = Qrmodel.simulate m ~from:prev p in
        ( st,
          counter "engine.warm_resume_hits" - hits,
          counter "engine.warm_resume_misses" - misses,
          counter "warm.verified" - verified ))
  in
  let off, off_hits, off_misses, _ = resume Warm_mode.Off in
  check_bool "off: cold run" false (Engine.resumed off);
  check_int "off: no hit" 0 off_hits;
  check_int "off: no miss" 0 off_misses;
  check_equivalent "off" cold off;
  let on, on_hits, _, on_verified = resume Warm_mode.On in
  check_bool "on: resumed" true (Engine.resumed on);
  check_int "on: one hit" 1 on_hits;
  check_int "on: nothing verified" 0 on_verified;
  check_equivalent "on" cold on;
  let divergences = counter "warm.divergences" in
  let ver, ver_hits, ver_misses, ver_verified = resume Warm_mode.Verify in
  check_bool "verify: warm state returned" true (Engine.resumed ver);
  check_int "verify: cold re-run is not a hit" 1 ver_hits;
  check_int "verify: cold re-run is not a miss" 0 ver_misses;
  check_int "verify: one comparison" 1 ver_verified;
  check_int "verify: no divergence" divergences (counter "warm.divergences");
  check_int "verify: warm event count" (Engine.events on) (Engine.events ver);
  (* Pool batches count the resumes they returned. *)
  let _, stats =
    Knobs.with_warm Warm_mode.On (fun () ->
        Pool.simulate ~jobs:1
          ~sim:(fun q -> Qrmodel.simulate m ~from:prev q)
          [ p; Asn.origin_prefix 3 ])
  in
  check_int "pool: one of two resumed" 1 stats.Pool.resumed

let refine_in mode =
  Knobs.with_warm mode (fun () ->
      let m = Qrmodel.initial diamond_graph in
      Refiner.refine m ~training:fig5_training)

let refiner_mode_equivalence () =
  let off = refine_in Warm_mode.Off in
  let on = refine_in Warm_mode.On in
  check_bool "off converged" true off.Refiner.converged;
  check_bool "on converged" true on.Refiner.converged;
  check_int "same matched" off.Refiner.matched on.Refiner.matched;
  check_int "same total" off.Refiner.total on.Refiner.total;
  check_int "same iterations" off.Refiner.iterations on.Refiner.iterations;
  (* Same final routing, state by state. *)
  Hashtbl.iter
    (fun prefix st_off ->
      match Hashtbl.find_opt on.Refiner.states prefix with
      | None -> Alcotest.fail "state missing under warm mode"
      | Some st_on ->
          check_int "same final fingerprint"
            (Engine.state_fingerprint st_off)
            (Engine.state_fingerprint st_on))
    off.Refiner.states

let refiner_verify_clean () =
  let verified = Obs.Metrics.find_counter "warm.verified" in
  let divergences = Obs.Metrics.find_counter "warm.divergences" in
  let r = refine_in Warm_mode.Verify in
  check_bool "verify converged" true r.Refiner.converged;
  check_bool "some pairs compared" true
    (Obs.Metrics.find_counter "warm.verified" > verified);
  check_int "zero divergences" divergences
    (Obs.Metrics.find_counter "warm.divergences");
  check_bool "resumes counted by the pool" true
    (r.Refiner.pool.Pool.resumed > 0)

(* -- memoised state fingerprints -- *)

let fingerprints () = Obs.Metrics.find_counter "engine.state_fingerprints"

(* The memo is per state and asking twice hashes once.  A warm resume
   from an already fingerprinted state does not inherit the parent's
   value: it derives its own from the parent's by swapping the terms of
   the entries it replaced, with no full hash — and that value still
   equals the cold state's and differs from the parent's. *)
let memo_fresh_after_resume () =
  let m = Qrmodel.initial diamond_graph in
  let net = m.Qrmodel.net in
  let prev = Qrmodel.simulate m p in
  Net.clear_touched net p;
  let f0 = fingerprints () in
  let fp_prev = Engine.state_fingerprint prev in
  check_int "first ask hashes" (f0 + 1) (fingerprints ());
  check_int "second ask is memoised" fp_prev (Engine.state_fingerprint prev);
  check_int "no second hash" (f0 + 1) (fingerprints ());
  let n1 = List.hd (Net.nodes_of_as net 1) in
  let n4 = List.hd (Net.nodes_of_as net 4) in
  let s41 = Option.get (Net.find_session net n4 n1) in
  Net.deny_export net n4 s41 p;
  let warm =
    Engine.simulate ~from:prev net ~prefix:p
      ~originators:(Qrmodel.originators m p)
  in
  check_bool "resumed" true (Engine.resumed warm);
  let fp_warm = Engine.state_fingerprint warm in
  check_int "warm from a fingerprinted parent: no full hash" (f0 + 1)
    (fingerprints ());
  let cold = Qrmodel.simulate m p in
  check_int "warm fingerprint equals cold" (Engine.state_fingerprint cold)
    fp_warm;
  check_bool "the edit changed the routing" true (fp_warm <> fp_prev);
  check_int "one full hash for the cold state" (f0 + 2) (fingerprints ())

(* The fingerprint recomputed from scratch through the public
   accessors: the positional sum of per-entry terms, slots numbered
   node-major in session order. *)
let content_hash net st =
  let h = ref 0 and base = ref 0 in
  for n = 0 to Net.node_count net - 1 do
    Option.iter (fun r -> h := !h + Engine.best_hash n r) (Engine.best st n);
    List.iter
      (fun (s, r) -> h := !h + Engine.slot_hash (!base + s) r)
      (Engine.rib_in st n);
    base := !base + Net.session_count_of net n
  done;
  !h

(* A chain of warm resumes from a fingerprinted root: every link's
   fingerprint is derived from its parent's without a full hash, and
   must equal both the from-scratch content hash and the fingerprint of
   a cold run of the same policies. *)
let arb_chain =
  QCheck.(
    pair arb_scenario
      (make
         ~print:(fun l ->
           String.concat " | "
             (List.map
                (fun b -> String.concat "," (List.map string_of_int b))
                l))
         Gen.(
           list_size (int_range 3 5)
             (list_size (int_range 1 3) (int_bound 1_000_000)))))

let prop_incremental_fingerprint_chain =
  QCheck.Test.make
    ~name:"incremental fingerprint = content hash = cold, along a warm chain"
    ~count:60 arb_chain
    (fun ((graph, _), steps) ->
      Knobs.with_warm Warm_mode.On @@ fun () ->
      let m = Qrmodel.initial graph in
      let net = m.Qrmodel.net in
      let prefix = fst (List.hd m.Qrmodel.prefixes) in
      let originators = Qrmodel.originators m prefix in
      let root = Qrmodel.simulate m prefix in
      ignore (Engine.state_fingerprint root);
      Net.clear_touched net prefix;
      let step (prev, ok) edits =
        List.iter (apply_random_edit net prefix) edits;
        let f0 = fingerprints () in
        let warm = Engine.simulate ~from:prev net ~prefix ~originators in
        Net.clear_touched net prefix;
        let incremental = Engine.state_fingerprint warm in
        let no_full_hash = fingerprints () = f0 in
        let cold = Qrmodel.simulate m prefix in
        let ok =
          ok && Engine.resumed warm && no_full_hash
          && incremental = content_hash net warm
          && incremental = Engine.state_fingerprint cold
        in
        (warm, ok)
      in
      snd (List.fold_left step (root, true) steps))

(* Two domains racing on one unset memo both get the real value. *)
let memo_across_domains () =
  let m = Qrmodel.initial diamond_graph in
  let st = Qrmodel.simulate m p in
  let go = Atomic.make false in
  let worker () =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        Engine.state_fingerprint st)
  in
  let a = worker () and b = worker () in
  Atomic.set go true;
  let fa = Domain.join a and fb = Domain.join b in
  check_int "domains agree" fa fb;
  check_int "memo holds the value" fa (Engine.state_fingerprint st);
  let fresh = Qrmodel.simulate m p in
  check_int "equals a fresh state's" (Engine.state_fingerprint fresh) fa

let suite =
  [
    Alcotest.test_case "touched tracking" `Quick touched_tracking;
    Alcotest.test_case "generation tracking" `Quick generation_tracking;
    Alcotest.test_case "resume after policy change" `Quick
      resume_after_policy_change;
    Alcotest.test_case "resume after filter removal" `Quick
      resume_after_filter_removal;
    Alcotest.test_case "no-op resume is free" `Quick
      (Knobs.resuming resume_noop_is_free);
    Alcotest.test_case "warm locality on a chain" `Quick
      (Knobs.resuming warm_locality);
    Alcotest.test_case "resumable guards" `Quick
      (Knobs.resuming resumable_guards);
    Alcotest.test_case "path interning" `Quick interning;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    Alcotest.test_case "engine reads the warm mode" `Quick
      engine_reads_warm_mode;
    Alcotest.test_case "refiner mode equivalence" `Quick
      refiner_mode_equivalence;
    Alcotest.test_case "refiner verify is clean" `Quick refiner_verify_clean;
    Alcotest.test_case "fingerprint memo fresh after resume" `Quick
      (Knobs.resuming memo_fresh_after_resume);
    Alcotest.test_case "fingerprint memo across domains" `Quick
      memo_across_domains;
    QCheck_alcotest.to_alcotest prop_incremental_fingerprint_chain;
  ]

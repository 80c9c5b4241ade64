(* Tests for the per-prefix propagation engine. *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module R = Simulator.Rattr

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let p6 = Asn.origin_prefix 6

(* Line topology 1 - 2 - 3, prefix originated at 3 (node ids 0,1,2). *)
let line () =
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect net n1 n2);
  ignore (Net.connect net n2 n3);
  (net, n1, n2, n3)

let propagation () =
  let net, n1, n2, n3 = line () in
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "converged" true (Engine.converged st);
  check_bool "origin selects itself" true
    (Engine.best_full_path net st n3 = Some [| 3 |]);
  check_bool "middle" true (Engine.best_full_path net st n2 = Some [| 2; 3 |]);
  check_bool "end" true (Engine.best_full_path net st n1 = Some [| 1; 2; 3 |])

let shortest_path_choice () =
  (* Square: 1-2-4 and 1-3-4 plus direct 1-4; direct wins. *)
  let net = Net.create () in
  let n = Array.init 4 (fun i -> Net.add_node net ~asn:(i + 1) ~ip:(Asn.router_ip (i + 1) 0)) in
  ignore (Net.connect net n.(0) n.(1));
  ignore (Net.connect net n.(0) n.(2));
  ignore (Net.connect net n.(0) n.(3));
  ignore (Net.connect net n.(1) n.(3));
  ignore (Net.connect net n.(2) n.(3));
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n.(3) ] in
  check_bool "direct path" true (Engine.best_full_path net st n.(0) = Some [| 1; 4 |])

let tie_break_lowest_ip () =
  (* Diamond: 1 reaches 4 via 2 or 3, equal length; AS 2 has the lower
     quasi-router address, so its route wins at AS 1. *)
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let n4 = Net.add_node net ~asn:4 ~ip:(Asn.router_ip 4 0) in
  ignore (Net.connect net n1 n2);
  ignore (Net.connect net n1 n3);
  ignore (Net.connect net n2 n4);
  ignore (Net.connect net n3 n4);
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n4 ] in
  check_bool "via lower address" true
    (Engine.best_full_path net st n1 = Some [| 1; 2; 4 |])

let export_filter_blocks () =
  let net, n1, n2, n3 = line () in
  (* 2 refuses to announce p6 to 1. *)
  let s21 = Option.get (Net.find_session net n2 n1) in
  Net.deny_export net n2 s21 p6;
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "blocked" true (Engine.best st n1 = None);
  check_bool "unaffected elsewhere" true (Engine.best st n2 <> None);
  (* Another prefix is unaffected. *)
  let st9 = Engine.simulate net ~prefix:(Asn.origin_prefix 9) ~originators:[ n3 ] in
  check_bool "other prefix flows" true (Engine.best st9 n1 <> None)

let med_ranking () =
  (* 1 hears 4's prefix via 2 and 3 at equal length; an import MED rule
     at 1 prefers the session from 3 despite 2's lower address. *)
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let n4 = Net.add_node net ~asn:4 ~ip:(Asn.router_ip 4 0) in
  let s12, _ = Net.connect net n1 n2 in
  let s13, _ = Net.connect net n1 n3 in
  ignore (Net.connect net n2 n4);
  ignore (Net.connect net n3 n4);
  ignore s12;
  Net.set_import_med net n1 s13 p6 0;
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n4 ] in
  check_bool "med overrides tie-break" true
    (Engine.best_full_path net st n1 = Some [| 1; 3; 4 |])

let med_rfc_scope () =
  (* Same diamond and MED rule as [med_ranking], but with RFC 4271
     scoping: the routes at 1 come from different neighbour ASes (2 and
     3), so MED must not decide between them and the address tie-break
     picks AS 2 despite 3's lower MED. *)
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let n4 = Net.add_node net ~asn:4 ~ip:(Asn.router_ip 4 0) in
  ignore (Net.connect net n1 n2);
  let s13, _ = Net.connect net n1 n3 in
  ignore (Net.connect net n2 n4);
  ignore (Net.connect net n3 n4);
  Net.set_decision_steps net Simulator.Decision.full_steps;
  Net.set_med_scope net Simulator.Decision.Same_neighbor;
  Net.set_import_med net n1 s13 p6 0;
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n4 ] in
  check_bool "cross-neighbour med ignored" true
    (Engine.best_full_path net st n1 = Some [| 1; 2; 4 |])

let loop_rejection () =
  (* Triangle: routes never loop back through the own AS. *)
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect net n1 n2);
  ignore (Net.connect net n2 n3);
  ignore (Net.connect net n3 n1);
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  List.iter
    (fun n ->
      match Engine.best st n with
      | Some r ->
          let full = R.full_path ~own_as:(Net.asn_of net n) r in
          let seen = Hashtbl.create 4 in
          Array.iter
            (fun a ->
              check_bool "no repeated AS" false (Hashtbl.mem seen a);
              Hashtbl.add seen a ())
            full
      | None -> Alcotest.fail "no route")
    [ n1; n2; n3 ]

let ibgp_and_hot_potato () =
  (* AS 1 has two routers r1a, r1b; r1a peers with AS 2, r1b with AS 3;
     both hear AS 4's prefix at equal preference.  With full steps each
     prefers its own eBGP route (hot potato). *)
  let net = Net.create () in
  Net.set_decision_steps net Simulator.Decision.full_steps;
  let r1a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let r1b = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 1) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let n4 = Net.add_node net ~asn:4 ~ip:(Asn.router_ip 4 0) in
  ignore (Net.connect ~kind:Net.Ibgp net r1a r1b);
  ignore (Net.connect net r1a n2);
  ignore (Net.connect net r1b n3);
  ignore (Net.connect net n2 n4);
  ignore (Net.connect net n3 n4);
  Net.set_igp_cost net (fun _ _ -> 5);
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n4 ] in
  check_bool "r1a exits via 2" true
    (Engine.best_full_path net st r1a = Some [| 1; 2; 4 |]);
  check_bool "r1b exits via 3" true
    (Engine.best_full_path net st r1b = Some [| 1; 3; 4 |]);
  let paths = Engine.selected_paths net st 1 in
  check_int "AS 1 propagates two routes" 2 (List.length paths)

let ibgp_no_reexport () =
  (* Three routers in a line of iBGP sessions: r_c must NOT hear the
     eBGP route via r_a -> r_b -> r_c (no iBGP re-export), only via its
     direct session with r_a. *)
  let net = Net.create () in
  Net.set_decision_steps net Simulator.Decision.full_steps;
  let ra = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let rb = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 1) in
  let rc = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 2) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  ignore (Net.connect ~kind:Net.Ibgp net ra rb);
  ignore (Net.connect ~kind:Net.Ibgp net rb rc);
  (* deliberately NO ra-rc session *)
  ignore (Net.connect net ra n2);
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n2 ] in
  check_bool "ra has it" true (Engine.best st ra <> None);
  check_bool "rb has it via ibgp" true (Engine.best st rb <> None);
  check_bool "rc starves (no full mesh)" true (Engine.best st rc = None)

let relationship_export_rule () =
  (* Valley-free: AS 1 and AS 3 are providers of AS 2.  A route learned
     by 2 from provider 1 must not be exported to provider 3. *)
  let module RC = Simulator.Relclass in
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect ~class_ab:RC.customer ~class_ba:RC.provider net n1 n2);
  ignore (Net.connect ~class_ab:RC.provider ~class_ba:RC.customer net n2 n3);
  Net.set_export_matrix net RC.export_ok;
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n1 ] in
  check_bool "customer 2 hears it" true (Engine.best st n2 <> None);
  check_bool "provider 3 does not (no valley)" true (Engine.best st n3 = None)

let withdrawal_cascades () =
  (* After simulating with a filter, removing it and re-running reaches
     the previously-starved node; the engine state is per-run, so we
     just check both runs are consistent. *)
  let net, n1, n2, n3 = line () in
  let s21 = Option.get (Net.find_session net n2 n1) in
  Net.deny_export net n2 s21 p6;
  let st1 = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "starved" true (Engine.best st1 n1 = None);
  Net.allow_export net n2 s21 p6;
  let st2 = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "reaches after removal" true
    (Engine.best_full_path net st2 n1 = Some [| 1; 2; 3 |])

let carried_lpref () =
  (* Sibling-style session: the receiver keeps the announcer's
     LOCAL_PREF instead of applying an import value. *)
  let net = Net.create () in
  let n1 = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let n2 = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let n3 = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let s12, _ = Net.connect net n1 n2 in
  let _ = Net.connect net n2 n3 in
  let s23 = Option.get (Net.find_session net n2 n3) in
  Net.set_import_lpref net n2 s23 77;
  Net.set_carry_lpref net n1 s12 true;
  let st = Engine.simulate net ~prefix:p6 ~originators:[ n3 ] in
  match Engine.rib_in st n1 with
  | [ (_, r) ] -> check_int "carried lpref" 77 r.R.lpref
  | _ -> Alcotest.fail "expected exactly one rib-in route"

let event_budget () =
  let net, _, _, n3 = line () in
  let st = Engine.simulate ~max_events:1 net ~prefix:p6 ~originators:[ n3 ] in
  check_bool "flagged non-converged" false (Engine.converged st)

(* -- domain-local scratch -- *)

(* Two prefixes of AS 1 over a world with eBGP and iBGP sessions.
   Prefix [pa] carries a deny, an import MED and an import LOCAL_PREF
   rule; [pb] carries none.  Each of [pa]'s rules sits on a session
   [pb]'s routes cross, and [pa]'s run memoises the IGP cost of an
   iBGP slot [pb]'s run reads too, so any of it left in a domain's
   scratch changes what a later [pb] run computes there. *)
let pa = Asn.origin_prefix 1

let pb = Asn.origin_prefix 9

let scratch_world () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let r2a = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let r2b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 1) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let s_a_r2a, _ = Net.connect net a r2a in
  let _, s_r2b_a = Net.connect net a r2b in
  ignore (Net.connect ~kind:Net.Ibgp net r2a r2b);
  ignore (Net.connect net r2a c);
  let _, s_c_r2b = Net.connect net r2b c in
  Net.set_igp_cost net (fun _ _ -> 5);
  Net.deny_export net a s_a_r2a pa;
  Net.set_import_med net r2b s_r2b_a pa 50;
  Net.set_import_lpref_for net c s_c_r2b pa 300;
  (net, a)

(* [f] on a freshly spawned domain, whose scratch no run has used; the
   spawn and the join are published to the race detector as sync
   edges, as the pool does. *)
let on_fresh_domain f =
  let chan = Printf.sprintf "test.fresh-domain.%s" in
  Obs.Probe.release ~chan:(chan "spawn");
  let d =
    Domain.spawn (fun () ->
        Obs.Probe.acquire ~chan:(chan "spawn");
        let v = f () in
        Obs.Probe.release ~chan:(chan "join");
        v)
  in
  let v = Domain.join d in
  Obs.Probe.acquire ~chan:(chan "join");
  v

let fallbacks () = Obs.Metrics.find_counter "engine.scratch_fallbacks"

let check_same_run what expected st =
  check_bool (what ^ ": same routing") true (Engine.same_state expected st);
  check_int (what ^ ": same events") (Engine.events expected) (Engine.events st)

let scratch_rows_do_not_leak () =
  let net, a = scratch_world () in
  ignore (Engine.simulate net ~prefix:pa ~originators:[ a ]);
  Net.set_igp_cost net (fun _ _ -> 9);
  let b = Engine.simulate net ~prefix:pb ~originators:[ a ] in
  let fresh =
    on_fresh_domain (fun () -> Engine.simulate net ~prefix:pb ~originators:[ a ])
  in
  check_same_run "pb after pa = pb on a fresh domain" fresh b

let scratch_clean_after_raise () =
  let net, a = scratch_world () in
  let changes = ref 0 in
  let raise_on_second _ _ =
    incr changes;
    if !changes = 2 then raise Exit
  in
  (match
     Engine.simulate ~on_best_change:raise_on_second net ~prefix:pb
       ~originators:[ a ]
   with
  | _ -> Alcotest.fail "on_best_change did not raise"
  | exception Exit -> ());
  let f0 = fallbacks () in
  let after = Engine.simulate net ~prefix:pb ~originators:[ a ] in
  check_int "the next run reuses the released scratch" f0 (fallbacks ());
  let fresh =
    on_fresh_domain (fun () -> Engine.simulate net ~prefix:pb ~originators:[ a ])
  in
  check_same_run "run after a raise = run on a fresh domain" fresh after

(* Thread 1's run parks inside its first [on_best_change] while
   holding the domain's scratch; thread 2 simulates meanwhile and must
   take a private scratch.  Both results equal their sequential runs. *)
let scratch_fallback_across_threads () =
  let net, a = scratch_world () in
  let seq_a = Engine.simulate net ~prefix:pa ~originators:[ a ] in
  let seq_b = Engine.simulate net ~prefix:pb ~originators:[ a ] in
  let m = Mutex.create () and cv = Condition.create () in
  let set flag =
    Mutex.lock m;
    flag := true;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let wait_for flag =
    Mutex.lock m;
    while not !flag do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let parked = ref false and finished = ref false in
  let got_a = ref None and got_b = ref None in
  let f0 = fallbacks () in
  let t1 =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> set parked)
          (fun () ->
            let park _ _ =
              if not !parked then begin
                set parked;
                wait_for finished
              end
            in
            got_a :=
              Some
                (Engine.simulate ~on_best_change:park net ~prefix:pa
                   ~originators:[ a ])))
      ()
  in
  let t2 =
    Thread.create
      (fun () ->
        wait_for parked;
        Fun.protect
          ~finally:(fun () -> set finished)
          (fun () ->
            got_b := Some (Engine.simulate net ~prefix:pb ~originators:[ a ])))
      ()
  in
  Thread.join t1;
  Thread.join t2;
  check_int "the concurrent run took a private scratch" (f0 + 1) (fallbacks ());
  check_same_run "parked run" seq_a (Option.get !got_a);
  check_same_run "concurrent run" seq_b (Option.get !got_b)

let suite =
  [
    Alcotest.test_case "propagation" `Quick propagation;
    Alcotest.test_case "shortest path choice" `Quick shortest_path_choice;
    Alcotest.test_case "tie-break lowest ip" `Quick tie_break_lowest_ip;
    Alcotest.test_case "export filter blocks" `Quick export_filter_blocks;
    Alcotest.test_case "med ranking" `Quick med_ranking;
    Alcotest.test_case "med rfc scope" `Quick med_rfc_scope;
    Alcotest.test_case "loop rejection" `Quick loop_rejection;
    Alcotest.test_case "ibgp + hot potato" `Quick ibgp_and_hot_potato;
    Alcotest.test_case "ibgp no re-export" `Quick ibgp_no_reexport;
    Alcotest.test_case "relationship export rule" `Quick relationship_export_rule;
    Alcotest.test_case "withdrawal cascades" `Quick withdrawal_cascades;
    Alcotest.test_case "carried lpref" `Quick carried_lpref;
    Alcotest.test_case "event budget" `Quick event_budget;
    Alcotest.test_case "scratch: rule rows do not leak" `Quick
      scratch_rows_do_not_leak;
    Alcotest.test_case "scratch: clean after a raising run" `Quick
      scratch_clean_after_raise;
    Alcotest.test_case "scratch: threads fall back" `Quick
      scratch_fallback_across_threads;
  ]

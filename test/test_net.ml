(* Tests for the network structure and its policy stores. *)

open Bgp
module Net = Simulator.Net

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let p = Asn.origin_prefix 6

let make_pair () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let sa, sb = Net.connect net a b in
  (net, a, b, sa, sb)

let construction () =
  let net, a, b, sa, sb = make_pair () in
  check_int "nodes" 2 (Net.node_count net);
  check_int "half-sessions" 2 (Net.session_count net);
  check_int "peer of a" b (Net.session_peer net a sa);
  check_int "peer of b" a (Net.session_peer net b sb);
  check_int "reverse of a's session" sb (Net.session_reverse net a sa);
  check_bool "find session" true (Net.find_session net a b = Some sa);
  check_bool "asn" true (Net.asn_of net a = 1)

let duplicate_sessions_rejected () =
  let net, a, b, _, _ = make_pair () in
  Alcotest.check_raises "dup" (Invalid_argument "Net.connect: session already exists")
    (fun () -> ignore (Net.connect net a b));
  Alcotest.check_raises "self" (Invalid_argument "Net.connect: self session")
    (fun () -> ignore (Net.connect net a a))

let policies () =
  let net, a, _b, sa, _ = make_pair () in
  check_bool "no deny initially" false (Net.export_denied net a sa p);
  Net.deny_export net a sa p;
  check_bool "denied" true (Net.export_denied net a sa p);
  Net.allow_export net a sa p;
  check_bool "allowed again" false (Net.export_denied net a sa p);
  check_bool "no med initially" true (Net.import_med net a sa p = None);
  Net.set_import_med net a sa p 0;
  check_bool "med set" true (Net.import_med net a sa p = Some 0);
  Net.clear_import_med net a sa p;
  check_bool "med cleared" true (Net.import_med net a sa p = None);
  Net.set_import_lpref net a sa 120;
  check_bool "lpref" true (Net.import_lpref net a sa = Some 120);
  Net.set_carry_lpref net a sa true;
  check_bool "carry" true (Net.carry_lpref net a sa)

let policy_counting () =
  let net, a, b, sa, sb = make_pair () in
  Net.deny_export net a sa p;
  Net.deny_export net b sb (Asn.origin_prefix 7);
  Net.set_import_med net a sa p 5;
  let denies, meds = Net.count_policies net in
  check_int "denies" 2 denies;
  check_int "meds" 1 meds;
  let folded =
    Net.fold_export_denies net (fun _ _ _ acc -> acc + 1) 0
  in
  check_int "fold over denies" 2 folded

let nodes_of_as_ordering () =
  let net = Net.create () in
  let a0 = Net.add_node net ~asn:5 ~ip:(Asn.router_ip 5 0) in
  let a1 = Net.add_node net ~asn:5 ~ip:(Asn.router_ip 5 1) in
  check_bool "creation order" true (Net.nodes_of_as net 5 = [ a0; a1 ]);
  check_bool "unknown as" true (Net.nodes_of_as net 99 = [])

let duplication () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  let sa_b, sb_a = Net.connect net a b in
  let sa_c, _ = Net.connect net a c in
  (* Policies in all four directions around [a]. *)
  Net.set_import_lpref net a sa_b 111;
  Net.set_import_med net a sa_c p 7;
  Net.deny_export net a sa_b p;
  Net.deny_export net b sb_a (Asn.origin_prefix 9);
  let a2 = Net.duplicate_node net a in
  check_bool "same asn" true (Net.asn_of net a2 = 1);
  check_bool "fresh ip = next index" true
    (Ipv4.equal (Net.ip_of net a2) (Asn.router_ip 1 1));
  check_int "same session count" 2 (List.length (Net.sessions_of net a2));
  (* The duplicate's session i mirrors the original's session i. *)
  check_int "peer order preserved" (Net.session_peer net a sa_b)
    (Net.session_peer net a2 sa_b);
  check_bool "import lpref copied" true (Net.import_lpref net a2 sa_b = Some 111);
  check_bool "import med copied" true (Net.import_med net a2 sa_c p = Some 7);
  check_bool "own deny copied" true (Net.export_denied net a2 sa_b p);
  (* The peer's policies towards the duplicate mirror those towards the
     original. *)
  let sb_a2 =
    match Net.find_session net b a2 with Some s -> s | None -> Alcotest.fail "no session"
  in
  check_bool "peer-side deny copied" true
    (Net.export_denied net b sb_a2 (Asn.origin_prefix 9));
  (* Policies are deep copies: changing the duplicate leaves the
     original alone. *)
  Net.set_import_med net a2 sa_c p 99;
  check_bool "deep copy" true (Net.import_med net a sa_c p = Some 7)

(* -- the prefix-major policy index against a naive list model -- *)

type op =
  | Deny of int * int * int  (* node pick, session pick, prefix pick *)
  | Allow of int * int * int
  | Set_med of int * int * int * int
  | Clear_med of int * int * int
  | Set_lpref of int * int * int * int
  | Clear_lpref of int * int * int
  | Connect of int * int
  | Duplicate of int

let show_op = function
  | Deny (a, b, c) -> Printf.sprintf "deny(%d,%d,%d)" a b c
  | Allow (a, b, c) -> Printf.sprintf "allow(%d,%d,%d)" a b c
  | Set_med (a, b, c, v) -> Printf.sprintf "med(%d,%d,%d)=%d" a b c v
  | Clear_med (a, b, c) -> Printf.sprintf "clear-med(%d,%d,%d)" a b c
  | Set_lpref (a, b, c, v) -> Printf.sprintf "lpref(%d,%d,%d)=%d" a b c v
  | Clear_lpref (a, b, c) -> Printf.sprintf "clear-lpref(%d,%d,%d)" a b c
  | Connect (a, b) -> Printf.sprintf "connect(%d,%d)" a b
  | Duplicate a -> Printf.sprintf "dup(%d)" a

let gen_op =
  QCheck.Gen.(
    let pick = int_bound 1000 in
    let v = int_bound 300 in
    frequency
      [
        (4, map3 (fun a b c -> Deny (a, b, c)) pick pick pick);
        (2, map3 (fun a b c -> Allow (a, b, c)) pick pick pick);
        (3, map (fun (a, b, c, x) -> Set_med (a, b, c, x))
          (quad pick pick pick v));
        (2, map3 (fun a b c -> Clear_med (a, b, c)) pick pick pick);
        (3, map (fun (a, b, c, x) -> Set_lpref (a, b, c, x))
          (quad pick pick pick v));
        (2, map3 (fun a b c -> Clear_lpref (a, b, c)) pick pick pick);
        (2, map2 (fun a b -> Connect (a, b)) pick pick);
        (1, map (fun a -> Duplicate a) pick);
      ])

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map show_op ops))
    QCheck.Gen.(list_size (int_range 1 60) gen_op)

let model_prefixes = Array.init 3 (fun i -> Asn.origin_prefix (i + 1))

type kind = Kdeny | Kmed | Klpref

(* Replays [ops] on a four-node net and on an association list of
   (kind, node, session, prefix) -> value, then compares every reader
   of the index with the list. *)
let index_matches_model ops =
  let net = Net.create () in
  let ids =
    Array.init 4 (fun i ->
        Net.add_node net ~asn:(i + 1) ~ip:(Asn.router_ip (i + 1) 0))
  in
  ignore (Net.connect net ids.(0) ids.(1));
  ignore (Net.connect net ids.(1) ids.(2));
  let rules = ref [] in
  let set key v = rules := (key, v) :: List.remove_assoc key !rules in
  let clear key = rules := List.remove_assoc key !rules in
  let on_session a b c f =
    let n = a mod Net.node_count net in
    let k = Net.session_count_of net n in
    if k > 0 then f n (b mod k) model_prefixes.(c mod 3)
  in
  List.iter
    (function
      | Deny (a, b, c) ->
          on_session a b c (fun n s p ->
              Net.deny_export net n s p;
              set (Kdeny, n, s, p) 0)
      | Allow (a, b, c) ->
          on_session a b c (fun n s p ->
              Net.allow_export net n s p;
              clear (Kdeny, n, s, p))
      | Set_med (a, b, c, v) ->
          on_session a b c (fun n s p ->
              Net.set_import_med net n s p v;
              set (Kmed, n, s, p) v)
      | Clear_med (a, b, c) ->
          on_session a b c (fun n s p ->
              Net.clear_import_med net n s p;
              clear (Kmed, n, s, p))
      | Set_lpref (a, b, c, v) ->
          on_session a b c (fun n s p ->
              Net.set_import_lpref_for net n s p v;
              set (Klpref, n, s, p) v)
      | Clear_lpref (a, b, c) ->
          on_session a b c (fun n s p ->
              Net.clear_import_lpref_for net n s p;
              clear (Klpref, n, s, p))
      | Connect (a, b) ->
          let a = a mod Net.node_count net and b = b mod Net.node_count net in
          if a <> b && Net.find_session net a b = None then
            ignore (Net.connect net a b)
      | Duplicate a ->
          let n = a mod Net.node_count net in
          let dup = Net.duplicate_node net n in
          (* The duplicate inherits n's rules under the same session
             index; a peer's rules toward n reappear on its session
             toward the duplicate. *)
          let copies =
            List.filter_map
              (fun ((kind, m, s, p), v) ->
                if m = n then Some ((kind, dup, s, p), v)
                else if Net.session_peer net m s = n then
                  Option.map
                    (fun s' -> ((kind, m, s', p), v))
                    (Net.find_session net m dup)
                else None)
              !rules
          in
          rules := copies @ !rules)
    ops;
  let expect kind n s p = List.assoc_opt (kind, n, s, p) !rules in
  let readers_agree = ref true in
  for n = 0 to Net.node_count net - 1 do
    for s = 0 to Net.session_count_of net n - 1 do
      Array.iter
        (fun p ->
          if
            Net.export_denied net n s p <> (expect Kdeny n s p <> None)
            || Net.import_med net n s p <> expect Kmed n s p
            || Net.import_lpref_for net n s p <> expect Klpref n s p
          then readers_agree := false)
        model_prefixes
    done
  done;
  let cmp (n1, s1, p1, _) (n2, s2, p2, _) =
    compare (n1, s1) (n2, s2) |> function 0 -> Prefix.compare p1 p2 | c -> c
  in
  let expected kind =
    List.filter_map
      (fun ((k, n, s, p), v) -> if k = kind then Some (n, s, p, v) else None)
      !rules
    |> List.sort cmp
  in
  let folded fold =
    List.rev (fold net (fun n s p v acc -> (n, s, p, v) :: acc) [])
  in
  let denies =
    Net.fold_export_denies net (fun n s p acc -> (n, s, p, 0) :: acc) []
    |> List.rev
  in
  !readers_agree
  && denies = expected Kdeny
  && folded Net.fold_import_meds = expected Kmed
  && folded Net.fold_import_lprefs = expected Klpref
  && Net.count_policies net
     = (List.length (expected Kdeny), List.length (expected Kmed))

let prop_index_matches_model =
  QCheck.Test.make ~name:"policy index matches a list model" ~count:200
    arb_ops index_matches_model

(* The structure fingerprint folds per-prefix rules by CSR slot; its
   values predate the prefix-major index and must not move.  The
   pinned value was computed on this net before the index existed. *)
let pinned_fingerprint () =
  let net = Net.create () in
  let n = 12 in
  let ids =
    Array.init n (fun i ->
        Net.add_node net ~asn:(i + 1) ~ip:(Asn.router_ip (i + 1) 0))
  in
  for i = 0 to n - 1 do
    ignore (Net.connect net ids.(i) ids.((i + 1) mod n));
    if i mod 3 = 0 then ignore (Net.connect net ids.(i) ids.((i + 5) mod n))
  done;
  let ps = Array.init 5 (fun i -> Asn.origin_prefix (i + 1)) in
  let r = ref 12345 in
  let rnd k =
    r := ((!r * 1103515245) + 12345) land 0x3fffffff;
    !r mod k
  in
  for _ = 1 to 200 do
    let u = rnd (Net.node_count net) in
    let s = rnd (Net.session_count_of net u) and p = ps.(rnd 5) in
    match rnd 6 with
    | 0 -> Net.deny_export net u s p
    | 1 -> Net.allow_export net u s p
    | 2 -> Net.set_import_med net u s p (rnd 50)
    | 3 -> Net.clear_import_med net u s p
    | 4 -> Net.set_import_lpref_for net u s p (50 + rnd 100)
    | _ -> if rnd 8 = 0 then ignore (Net.duplicate_node net u)
  done;
  check_bool "pinned structure fingerprint" true
    (Net.structure_fingerprint net = 3549186417604269562);
  check_bool "policy counts" true (Net.count_policies net = (57, 38))

let suite =
  [
    Alcotest.test_case "construction" `Quick construction;
    Alcotest.test_case "duplicate sessions rejected" `Quick duplicate_sessions_rejected;
    Alcotest.test_case "policies" `Quick policies;
    Alcotest.test_case "policy counting" `Quick policy_counting;
    Alcotest.test_case "nodes_of_as ordering" `Quick nodes_of_as_ordering;
    Alcotest.test_case "duplication" `Quick duplication;
    Alcotest.test_case "pinned structure fingerprint" `Quick pinned_fingerprint;
    QCheck_alcotest.to_alcotest prop_index_matches_model;
  ]

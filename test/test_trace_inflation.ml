(* Tests for propagation trees (Simulator.Forest) and path inflation
   (Topology.Inflation). *)

open Bgp
module Net = Simulator.Net
module Engine = Simulator.Engine
module Forest = Simulator.Forest

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let p6 = Asn.origin_prefix 6

(* Line 1-2-3-4 originated at node of AS 4. *)
let line_state () =
  let net = Net.create () in
  let nodes =
    Array.init 4 (fun i -> Net.add_node net ~asn:(i + 1) ~ip:(Asn.router_ip (i + 1) 0))
  in
  for i = 0 to 2 do
    ignore (Net.connect net nodes.(i) nodes.(i + 1))
  done;
  let st = Engine.simulate net ~prefix:p6 ~originators:[ nodes.(3) ] in
  (net, nodes, st)

let tree_structure () =
  let net, nodes, st = line_state () in
  let t = Forest.tree net st in
  check_bool "root is originator" true (t.Forest.roots = [ nodes.(3) ]);
  check_bool "no unrouted" true (t.Forest.unrouted = []);
  check_bool "parent chain" true
    (t.Forest.parent.(nodes.(0)) = Some nodes.(1)
    && t.Forest.parent.(nodes.(1)) = Some nodes.(2)
    && t.Forest.parent.(nodes.(2)) = Some nodes.(3)
    && t.Forest.parent.(nodes.(3)) = None);
  check_int "depth of end" 3 (Forest.depth t nodes.(0));
  check_int "depth of root" 0 (Forest.depth t nodes.(3));
  check_int "cone of node 2" 3 (Forest.subtree_size t nodes.(2));
  check_bool "depth histogram" true
    (Forest.depth_histogram t = [ (0, 1); (1, 1); (2, 1); (3, 1) ])

let tree_with_unrouted () =
  let net = Net.create () in
  let a = Net.add_node net ~asn:1 ~ip:(Asn.router_ip 1 0) in
  let b = Net.add_node net ~asn:2 ~ip:(Asn.router_ip 2 0) in
  let c = Net.add_node net ~asn:3 ~ip:(Asn.router_ip 3 0) in
  ignore (Net.connect net a b);
  ignore c (* isolated *);
  let st = Engine.simulate net ~prefix:p6 ~originators:[ a ] in
  let t = Forest.tree net st in
  check_bool "c unrouted" true (List.mem c t.Forest.unrouted);
  check_bool "b child of a" true (t.Forest.parent.(b) = Some a)

let pp_route_format () =
  let net, nodes, st = line_state () in
  let s = Format.asprintf "%a" (Forest.pp_route net st) nodes.(0) in
  check_bool "mentions all hops" true
    (List.for_all
       (fun frag ->
         let rec contains i =
           i + String.length frag <= String.length s
           && (String.sub s i (String.length frag) = frag || contains (i + 1))
         in
         contains 0)
       [ "AS1"; "AS2"; "AS3"; "AS4"; "[origin]" ])

(* -- inflation -- *)

let square_graph =
  (* 1-2, 2-4, 1-3, 3-4 and a long detour 1-5, 5-6, 6-4. *)
  Topology.Asgraph.of_edges [ (1, 2); (2, 4); (1, 3); (3, 4); (1, 5); (5, 6); (6, 4) ]

let inflation_basic () =
  let paths =
    [
      Aspath.of_list [ 1; 2; 4 ];  (* shortest: 2 hops *)
      Aspath.of_list [ 1; 5; 6; 4 ];  (* +1 *)
      Aspath.of_list [ 1; 3; 4 ];  (* shortest again *)
    ]
  in
  let r = Topology.Inflation.analyze square_graph paths in
  check_int "graded" 3 r.Topology.Inflation.paths;
  check_int "exact" 2 r.Topology.Inflation.exact;
  check_int "inflated" 1 r.Topology.Inflation.inflated;
  check_bool "histogram" true
    (r.Topology.Inflation.extra_hops_histogram = [ (0, 2); (1, 1) ]);
  check_bool "mean" true
    (abs_float (r.Topology.Inflation.mean_inflation -. (1.0 /. 3.0)) < 1e-9)

let inflation_skips_unknown () =
  let paths = [ Aspath.of_list [ 99; 98 ]; Aspath.of_list [ 1 ] ] in
  let r = Topology.Inflation.analyze square_graph paths in
  check_int "nothing graded" 0 r.Topology.Inflation.paths

let bfs_distances () =
  check_bool "adjacent" true (Topology.Inflation.bfs_distance square_graph 1 2 = Some 1);
  check_bool "across" true (Topology.Inflation.bfs_distance square_graph 1 4 = Some 2);
  check_bool "self" true (Topology.Inflation.bfs_distance square_graph 1 1 = Some 0);
  check_bool "unknown" true (Topology.Inflation.bfs_distance square_graph 1 99 = None)

let observed_paths_inflation_is_sane () =
  (* On a real generated world, inflation must be non-negative and the
     histogram consistent with the totals. *)
  let conf = { Netgen.Conf.tiny with Netgen.Conf.seed = 12 } in
  let world = Netgen.Groundtruth.build conf in
  let data = Netgen.Groundtruth.observe world in
  let graph = Topology.Extract.graph_of_dataset data in
  let r = Topology.Inflation.analyze graph (Rib.all_paths data) in
  check_bool "graded some" true (r.Topology.Inflation.paths > 0);
  let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Topology.Inflation.extra_hops_histogram in
  check_int "histogram covers all" r.Topology.Inflation.paths sum;
  check_bool "policy routing inflates some paths" true
    (r.Topology.Inflation.inflated > 0)

let suite =
  [
    Alcotest.test_case "tree structure" `Quick tree_structure;
    Alcotest.test_case "tree with unrouted" `Quick tree_with_unrouted;
    Alcotest.test_case "pp_route" `Quick pp_route_format;
    Alcotest.test_case "inflation basic" `Quick inflation_basic;
    Alcotest.test_case "inflation skips unknown" `Quick inflation_skips_unknown;
    Alcotest.test_case "bfs distances" `Quick bfs_distances;
    Alcotest.test_case "observed inflation sane" `Slow
      observed_paths_inflation_is_sane;
  ]

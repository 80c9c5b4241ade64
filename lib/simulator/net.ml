open Bgp

type session_kind = Ebgp | Ibgp

let class_none = 0

(* Minimal growable vector; nodes and sessions are append-only. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

  let create dummy = { data = Array.make 8 dummy; len = 0; dummy }

  let length v = v.len

  let get v i =
    if i < 0 || i >= v.len then invalid_arg "Vec.get" else v.data.(i)

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) v.dummy in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1;
    v.len - 1

  let iteri f v =
    for i = 0 to v.len - 1 do
      f i v.data.(i)
    done
end

type session = {
  peer : int;
  mutable peer_session : int;
  kind : session_kind;
  s_class : int;
  mutable lpref_in : int option;
  mutable carry_lpref : bool;
  mutable rr_client : bool;
}

type node = { asn : Asn.t; ip : Ipv4.t; sessions : session Vec.t }

(* Frozen CSR-style session index.  [c_off] maps a node to its first
   half-session slot (length node_count + 1, so a node's slots are
   [c_off.(n) .. c_off.(n+1) - 1]); every other array is indexed by
   slot.  The index is immutable once built and keyed on the generation
   counter, so the engine's hot path walks flat int arrays instead of
   chasing node records, session Vecs and option fields.  Per-prefix
   policies are not part of it: they live in the net's prefix-major
   policy index, keyed by (node, session-local index), which survives
   rebuilds. *)
type csr = {
  c_gen : int;
  c_off : int array;
  c_peer : int array;  (* slot -> peer node id *)
  c_rev : int array;  (* slot -> slot of the mirror half-session; -1 if none *)
  c_revloc : int array;  (* slot -> peer-local index of the mirror *)
  c_kind : int array;  (* 0 = eBGP, 1 = iBGP *)
  c_class : int array;
  c_max_class : int;  (* max over [c_class] and 0 *)
  c_lpref : int array;  (* import LOCAL_PREF; [min_int] = unset *)
  c_carry : int array;  (* 0/1 *)
  c_rr : int array;  (* 0/1 *)
  c_asn : int array;  (* node -> ASN *)
  c_ip : int array;  (* node -> numeric router address *)
}

(* Prefix-major policy index: per prefix, one sparse row per rule kind,
   keyed by (node, session-local index) packed into one int.  Nodes and
   sessions are append-only, so a key never changes meaning and the
   rows stay valid across CSR rebuilds; a rule's CSR slot is
   [off.(node) + session].  A simulation run of one prefix therefore
   reads only that prefix's rules. *)
module Rows = Hashtbl.Make (Int)

type rows = {
  med : int Rows.t;  (* per-prefix import MED *)
  lpref : int Rows.t;  (* per-prefix import LOCAL_PREF *)
  deny : unit Rows.t;  (* export filters *)
}

(* Session-local indexes below 2^24: far beyond any simulable degree. *)
let key_bits = 24

let rule_key n s = (n lsl key_bits) lor s

let key_node k = k lsr key_bits

let key_session k = k land ((1 lsl key_bits) - 1)

type t = {
  uid : int;  (* process-unique; names the Obs.Probe shared objects *)
  o_structure : string;  (* probe object: nodes/sessions/global knobs *)
  o_policy : string;  (* probe object: per-prefix policy tables *)
  o_csr : string;  (* probe object: the csr_cache Atomic (benign) *)
  nodes : node Vec.t;
  by_as : (Asn.t, int list ref) Hashtbl.t;  (* node ids, reverse order *)
  mutable export_ok : learned_class:int -> to_class:int -> bool;
  mutable igp : int -> int -> int;
  mutable med_default : int;
  mutable steps : Decision.step list;
  mutable m_scope : Decision.med_scope;
  mutable nsessions : int;  (* directed half-sessions *)
  (* Change tracking for warm-start re-simulation (Engine.simulate ?from):
     [generation] counts structural or network-wide mutations (nodes,
     sessions, global knobs) — any bump invalidates every prior state;
     [touched] records, per prefix, the nodes whose per-prefix policy
     changed since the set was last drained — the frontier a resumed
     run replays. *)
  mutable generation : int;
  touched : (int, unit) Hashtbl.t Prefix.Table.t;
  policy : rows Prefix.Table.t;
  (* Lazily built structural index, invalidated by generation mismatch.
     An [Atomic] because Pool workers may race to build it: the value is
     immutable and any winner is equivalent, so the race is benign. *)
  csr_cache : csr option Atomic.t;
}

let dummy_session =
  {
    peer = -1;
    peer_session = -1;
    kind = Ebgp;
    s_class = class_none;
    lpref_in = None;
    carry_lpref = false;
    rr_client = false;
  }

let dummy_node =
  { asn = 0; ip = Ipv4.of_int 0; sessions = Vec.create dummy_session }

let next_uid = Atomic.make 0

let create () =
  let uid = Atomic.fetch_and_add next_uid 1 in
  {
    uid;
    o_structure = Printf.sprintf "net#%d/structure" uid;
    o_policy = Printf.sprintf "net#%d/policy" uid;
    o_csr = Printf.sprintf "net#%d/csr" uid;
    nodes = Vec.create dummy_node;
    by_as = Hashtbl.create 256;
    export_ok = (fun ~learned_class:_ ~to_class:_ -> true);
    igp = (fun _ _ -> 0);
    med_default = 100;
    steps = Decision.model_steps;
    m_scope = Decision.Always_compare;
    nsessions = 0;
    generation = 0;
    touched = Prefix.Table.create 64;
    policy = Prefix.Table.create 64;
    csr_cache = Atomic.make None;
  }

let generation t = t.generation

(* Mutation instrumentation for the Analysis subsystem.  The hook is a
   single global ref so that the RD_CHECK=off cost at every mutator is
   one load and a branch — no allocation, no indirect call.  Structural
   events fire after the generation bump and carry the post-bump value;
   policy events carry the same node the touched-set bookkeeping
   recorded, so a checker can audit both invariants. *)
type mutation =
  | Structural of { rule : string; generation : int }
  | Policy of { rule : string; prefix : Prefix.t; node : int }

let mutation_hook : (t -> mutation -> unit) option ref = ref None

let set_mutation_hook h = mutation_hook := h

let bump_generation t = t.generation <- t.generation + 1

let notify_structural t rule =
  Obs.Probe.write ~obj:t.o_structure ~site:rule;
  match !mutation_hook with
  | None -> ()
  | Some f -> f t (Structural { rule; generation = t.generation })

let notify_policy t rule p node =
  Obs.Probe.write ~obj:t.o_policy ~site:rule;
  match !mutation_hook with
  | None -> ()
  | Some f -> f t (Policy { rule; prefix = p; node })

(* Read-side probes: the engine (and any other reader that walks the
   structure or the policy tables for a whole run) records one read
   per object per run, so a mutation that is not ordered after the
   run by a Pool join or executor hand-off surfaces as a race. *)
let probe_read t ~site =
  Obs.Probe.read ~obj:t.o_structure ~site;
  Obs.Probe.read ~obj:t.o_policy ~site

let probe_name t = Printf.sprintf "net#%d" t.uid

let note_touched t p n =
  let set =
    match Prefix.Table.find_opt t.touched p with
    | Some set -> set
    | None ->
        let set = Hashtbl.create 8 in
        Prefix.Table.add t.touched p set;
        set
  in
  Hashtbl.replace set n ()

let touched_nodes t p =
  match Prefix.Table.find_opt t.touched p with
  | None -> []
  | Some set ->
      (* Sorted so warm replay order — and hence event order — is
         deterministic regardless of hash-table iteration order. *)
      Hashtbl.fold (fun n () acc -> n :: acc) set []
      |> List.sort_uniq compare

let clear_touched t p = Prefix.Table.remove t.touched p

let add_node t ~asn ~ip =
  bump_generation t;
  let id =
    Vec.push t.nodes { asn; ip; sessions = Vec.create dummy_session }
  in
  (match Hashtbl.find_opt t.by_as asn with
  | Some l -> l := id :: !l
  | None -> Hashtbl.add t.by_as asn (ref [ id ]));
  notify_structural t "add-node";
  id

let node_count t = Vec.length t.nodes

let session_count t = t.nsessions

let node t n = Vec.get t.nodes n

let asn_of t n = (node t n).asn

let ip_of t n = (node t n).ip

let nodes_of_as t asn =
  match Hashtbl.find_opt t.by_as asn with
  | Some l -> List.rev !l
  | None -> []

let find_session t a b =
  let na = node t a in
  let found = ref None in
  Vec.iteri (fun i s -> if s.peer = b && !found = None then found := Some i)
    na.sessions;
  !found

let fresh_session ~peer ~kind ~s_class =
  {
    peer;
    peer_session = -1;
    kind;
    s_class;
    lpref_in = None;
    carry_lpref = false;
    rr_client = false;
  }

let connect ?(kind = Ebgp) ?(class_ab = class_none) ?(class_ba = class_none) t
    a b =
  if a = b then invalid_arg "Net.connect: self session";
  if find_session t a b <> None then
    invalid_arg "Net.connect: session already exists";
  bump_generation t;
  let sa = fresh_session ~peer:b ~kind ~s_class:class_ab in
  let sb = fresh_session ~peer:a ~kind ~s_class:class_ba in
  let ia = Vec.push (node t a).sessions sa in
  let ib = Vec.push (node t b).sessions sb in
  sa.peer_session <- ib;
  sb.peer_session <- ia;
  t.nsessions <- t.nsessions + 2;
  notify_structural t "connect";
  (ia, ib)

let sessions_of t n =
  let acc = ref [] in
  Vec.iteri (fun i s -> acc := (i, s.peer) :: !acc) (node t n).sessions;
  List.rev !acc

let build_csr t =
  let n = Vec.length t.nodes in
  let off = Array.make (n + 1) 0 in
  let total = ref 0 in
  for u = 0 to n - 1 do
    off.(u) <- !total;
    total := !total + Vec.length (Vec.get t.nodes u).sessions
  done;
  off.(n) <- !total;
  let total = !total in
  let peer = Array.make total (-1) in
  let rev = Array.make total (-1) in
  let revloc = Array.make total (-1) in
  let kind = Array.make total 0 in
  let cls = Array.make total class_none in
  let lpref = Array.make total min_int in
  let carry = Array.make total 0 in
  let rr = Array.make total 0 in
  let asn = Array.make n 0 in
  let ip = Array.make n 0 in
  for u = 0 to n - 1 do
    let nd = Vec.get t.nodes u in
    asn.(u) <- nd.asn;
    ip.(u) <- Ipv4.to_int nd.ip;
    let base = off.(u) in
    Vec.iteri
      (fun s ss ->
        let k = base + s in
        peer.(k) <- ss.peer;
        revloc.(k) <- ss.peer_session;
        (* A corrupted net (Unsafe) can dangle: guard the global slot so
           the index stays constructible for the lint to inspect. *)
        rev.(k) <-
          (if ss.peer >= 0 && ss.peer < n && ss.peer_session >= 0 then
             off.(ss.peer) + ss.peer_session
           else -1);
        kind.(k) <- (match ss.kind with Ebgp -> 0 | Ibgp -> 1);
        cls.(k) <- ss.s_class;
        (match ss.lpref_in with Some v -> lpref.(k) <- v | None -> ());
        if ss.carry_lpref then carry.(k) <- 1;
        if ss.rr_client then rr.(k) <- 1)
      nd.sessions
  done;
  {
    c_gen = t.generation;
    c_off = off;
    c_peer = peer;
    c_rev = rev;
    c_revloc = revloc;
    c_kind = kind;
    c_class = cls;
    c_max_class = Array.fold_left max 0 cls;
    c_lpref = lpref;
    c_carry = carry;
    c_rr = rr;
    c_asn = asn;
    c_ip = ip;
  }

let csr t =
  (* Both the cached-generation check and a rebuild read the live
     structure; the publish into the Atomic is the one declared benign
     race (immutable value, any winner equivalent) — it is probed as a
     write on the csr object so the detector sees it and the allowlist,
     not blindness, suppresses it. *)
  Obs.Probe.read ~obj:t.o_structure ~site:"net.csr";
  match Atomic.get t.csr_cache with
  | Some c when c.c_gen = t.generation -> c
  | _ ->
      let c = build_csr t in
      Obs.Probe.write ~obj:t.o_csr ~site:"net.csr-publish";
      Atomic.set t.csr_cache (Some c);
      c

(* A fresh index only when the cache is already valid: mutation-time
   callers (generators, the refiner between runs) must not trigger an
   O(nodes + sessions) rebuild per call. *)
let fresh_csr t =
  match Atomic.get t.csr_cache with
  | Some c when c.c_gen = t.generation -> Some c
  | _ -> None

module Csr = struct
  type nonrec t = csr

  let no_lpref = min_int

  let generation c = c.c_gen

  let node_count c = Array.length c.c_asn

  let slot_count c = Array.length c.c_peer

  let off c = c.c_off

  let peer c = c.c_peer

  let rev c = c.c_rev

  let reverse_local c = c.c_revloc

  let kinds c = c.c_kind

  let classes c = c.c_class

  let max_class c = c.c_max_class

  let lprefs c = c.c_lpref

  let carries c = c.c_carry

  let rr_clients c = c.c_rr

  let asns c = c.c_asn

  let ips c = c.c_ip
end

let iter_sessions t n f =
  match fresh_csr t with
  | Some c ->
      let base = c.c_off.(n) in
      for k = base to c.c_off.(n + 1) - 1 do
        f (k - base) c.c_peer.(k)
      done
  | None -> Vec.iteri (fun i s -> f i s.peer) (node t n).sessions

let session_count_of t n = Vec.length (node t n).sessions

let session t n s = Vec.get (node t n).sessions s

type session_info = {
  si_peer : int;
  si_reverse : int;
  si_kind : session_kind;
  si_class : int;
  si_lpref : int option;
  si_carry : bool;
  si_rr_client : bool;
}

let session_info t n s =
  match fresh_csr t with
  | Some c ->
      let k = c.c_off.(n) + s in
      {
        si_peer = c.c_peer.(k);
        si_reverse = c.c_revloc.(k);
        si_kind = (if c.c_kind.(k) = 1 then Ibgp else Ebgp);
        si_class = c.c_class.(k);
        si_lpref =
          (if c.c_lpref.(k) = min_int then None else Some c.c_lpref.(k));
        si_carry = c.c_carry.(k) = 1;
        si_rr_client = c.c_rr.(k) = 1;
      }
  | None ->
      let ss = session t n s in
      {
        si_peer = ss.peer;
        si_reverse = ss.peer_session;
        si_kind = ss.kind;
        si_class = ss.s_class;
        si_lpref = ss.lpref_in;
        si_carry = ss.carry_lpref;
        si_rr_client = ss.rr_client;
      }

let session_peer t n s = (session t n s).peer

let session_kind t n s = (session t n s).kind

let session_reverse t n s = (session t n s).peer_session

let session_class t n s = (session t n s).s_class

let set_import_lpref t n s v =
  bump_generation t;
  (session t n s).lpref_in <- Some v;
  notify_structural t "set-import-lpref"

let import_lpref t n s = (session t n s).lpref_in

let set_rr_client t n s v =
  bump_generation t;
  (session t n s).rr_client <- v;
  notify_structural t "set-rr-client"

let rr_client t n s = (session t n s).rr_client

let set_carry_lpref t n s v =
  bump_generation t;
  (session t n s).carry_lpref <- v;
  notify_structural t "set-carry-lpref"

let carry_lpref t n s = (session t n s).carry_lpref

(* Per-prefix rules live in the prefix-major index.  Writers create a
   prefix's rows on first use; readers of an unknown prefix see no
   rules. *)
let rows_of t p = Prefix.Table.find_opt t.policy p

let rows_for t p =
  match rows_of t p with
  | Some r -> r
  | None ->
      let r =
        { med = Rows.create 8; lpref = Rows.create 8; deny = Rows.create 8 }
      in
      Prefix.Table.add t.policy p r;
      r

let find_rule sel t n s p =
  match rows_of t p with
  | Some r -> Rows.find_opt (sel r) (rule_key n s)
  | None -> None

let remove_rule sel t n s p =
  match rows_of t p with
  | Some r -> Rows.remove (sel r) (rule_key n s)
  | None -> ()

let med_rows r = r.med

let lpref_rows r = r.lpref

let deny_rows r = r.deny

(* Import-side policy changes are recorded against the *sender*: the
   receiver cannot re-derive the pre-policy advertisement from its
   RIB-In, so a warm restart replays the sending peer's exports and the
   import runs again under the new policy. *)
let set_import_lpref_for t n s p v =
  let peer = (session t n s).peer in
  note_touched t p peer;
  Rows.replace (rows_for t p).lpref (rule_key n s) v;
  notify_policy t "set-import-lpref-for" p peer

let clear_import_lpref_for t n s p =
  let peer = (session t n s).peer in
  note_touched t p peer;
  remove_rule lpref_rows t n s p;
  notify_policy t "clear-import-lpref-for" p peer

let import_lpref_for t n s p = find_rule lpref_rows t n s p

let set_import_med t n s p v =
  let peer = (session t n s).peer in
  note_touched t p peer;
  Rows.replace (rows_for t p).med (rule_key n s) v;
  notify_policy t "set-import-med" p peer

let clear_import_med t n s p =
  let peer = (session t n s).peer in
  note_touched t p peer;
  remove_rule med_rows t n s p;
  notify_policy t "clear-import-med" p peer

let import_med t n s p = find_rule med_rows t n s p

let session_med = import_med

(* Export-side changes are re-evaluated at the exporting node itself. *)
let deny_export t n s p =
  ignore (session t n s);
  note_touched t p n;
  Rows.replace (rows_for t p).deny (rule_key n s) ();
  notify_policy t "deny-export" p n

let allow_export t n s p =
  ignore (session t n s);
  note_touched t p n;
  remove_rule deny_rows t n s p;
  notify_policy t "allow-export" p n

let export_denied t n s p = find_rule deny_rows t n s p <> None

(* Readers walk the index through [to_seq], never [iter]/[fold]:
   those flag an ongoing traversal by writing to the table, and Pool
   workers read the same rows concurrently. *)
let iter_rows f tbl =
  Seq.iter (fun (k, v) -> f (key_node k) (key_session k) v) (Rows.to_seq tbl)

let iter_prefix_rules t p ~deny ~med ~lpref =
  match rows_of t p with
  | None -> ()
  | Some r ->
      iter_rows (fun n s () -> deny n s) r.deny;
      iter_rows med r.med;
      iter_rows lpref r.lpref

let all_rows t = Prefix.Table.to_seq t.policy

(* Whole-net folds visit rules in (node, session, prefix) order, so
   their output does not depend on hash-table history. *)
let fold_rules sel t f init =
  Seq.fold_left
    (fun acc (p, r) ->
      Seq.fold_left
        (fun acc (k, v) -> (k, p, v) :: acc)
        acc
        (Rows.to_seq (sel r)))
    [] (all_rows t)
  |> List.sort (fun (k1, p1, _) (k2, p2, _) ->
         match Int.compare k1 k2 with 0 -> Prefix.compare p1 p2 | c -> c)
  |> List.fold_left
       (fun acc (k, p, v) -> f (key_node k) (key_session k) p v acc)
       init

let fold_export_denies t f init =
  fold_rules deny_rows t (fun n s p () acc -> f n s p acc) init

let fold_import_meds t f init = fold_rules med_rows t f init

let fold_import_lprefs t f init = fold_rules lpref_rows t f init

let count_policies t =
  Seq.fold_left
    (fun (denies, meds) (_, r) ->
      (denies + Rows.length r.deny, meds + Rows.length r.med))
    (0, 0) (all_rows t)

let set_export_matrix t f =
  bump_generation t;
  t.export_ok <- f;
  notify_structural t "set-export-matrix"

let export_matrix t ~learned_class ~to_class = t.export_ok ~learned_class ~to_class

let set_igp_cost t f =
  bump_generation t;
  t.igp <- f;
  notify_structural t "set-igp-cost"

let igp_cost t a b = t.igp a b

let set_default_med t v =
  bump_generation t;
  t.med_default <- v;
  notify_structural t "set-default-med"

let default_med t = t.med_default

let set_decision_steps t steps =
  bump_generation t;
  t.steps <- steps;
  notify_structural t "set-decision-steps"

let decision_steps t = t.steps

let set_med_scope t scope =
  bump_generation t;
  t.m_scope <- scope;
  notify_structural t "set-med-scope"

let med_scope t = t.m_scope

let duplicate_node t n =
  let orig = node t n in
  let idx = List.length (nodes_of_as t orig.asn) in
  let ip = Asn.router_ip orig.asn idx in
  let id = add_node t ~asn:orig.asn ~ip in
  let dup = node t id in
  (* [toward_dup.(i)]: index, at the peer of n's session [i], of the
     peer's new half-session toward the duplicate. *)
  let toward_dup = Array.make (Vec.length orig.sessions) (-1) in
  Vec.iteri
    (fun i s ->
      let peer_node = node t s.peer in
      let peer_half = Vec.get peer_node.sessions s.peer_session in
      (* Half-session at the duplicate, mirroring n's session toward
         this peer; it gets the same local index [i]. *)
      let mine = fresh_session ~peer:s.peer ~kind:s.kind ~s_class:s.s_class in
      mine.lpref_in <- s.lpref_in;
      mine.carry_lpref <- s.carry_lpref;
      mine.rr_client <- s.rr_client;
      (* Half-session at the peer toward the duplicate, mirroring the
         peer's half toward n. *)
      let theirs =
        fresh_session ~peer:id ~kind:peer_half.kind ~s_class:peer_half.s_class
      in
      theirs.lpref_in <- peer_half.lpref_in;
      theirs.carry_lpref <- peer_half.carry_lpref;
      theirs.rr_client <- peer_half.rr_client;
      let im = Vec.push dup.sessions mine in
      let ip' = Vec.push peer_node.sessions theirs in
      mine.peer_session <- ip';
      theirs.peer_session <- im;
      toward_dup.(i) <- ip';
      t.nsessions <- t.nsessions + 2)
    orig.sessions;
  (* Per-prefix policies in both directions, so the duplicate has the
     same RIB-In as the original (paper §4.6): each rule of n is
     repeated at the duplicate under the same session index, and each
     rule on a peer's half toward n on its half toward the duplicate.
     One pass over the index, collected first: the rows must not grow
     while they are walked. *)
  let copy tbl =
    Rows.fold
      (fun k v acc ->
        let m = key_node k in
        if m = n then (rule_key id (key_session k), v) :: acc
        else
          let ss = session t m (key_session k) in
          if ss.peer = n then
            (rule_key m toward_dup.(ss.peer_session), v) :: acc
          else acc)
      tbl []
    |> List.iter (fun (k, v) -> Rows.replace tbl k v)
  in
  Prefix.Table.iter
    (fun _ r ->
      copy r.med;
      copy r.lpref;
      copy r.deny)
    t.policy;
  id

(* Deterministic digest of everything the simulation outcome depends
   on: nodes, sessions, session attributes and per-prefix policies.
   Per-prefix rules are folded order-independently (XOR of per-rule
   hashes keyed by CSR slot) because hash-table iteration order is
   unspecified.  Two nets built by identical generator runs fingerprint
   identically. *)
let structure_fingerprint t =
  let h = ref 0x9e37 in
  let mix x = h := (!h * 1000003) lxor (x land max_int) in
  let c = csr t in
  mix (Vec.length t.nodes);
  mix t.nsessions;
  mix t.med_default;
  Array.iter mix c.c_asn;
  Array.iter mix c.c_ip;
  Array.iter mix c.c_off;
  Array.iter mix c.c_peer;
  Array.iter mix c.c_revloc;
  Array.iter mix c.c_kind;
  Array.iter mix c.c_class;
  Array.iter mix c.c_lpref;
  Array.iter mix c.c_carry;
  Array.iter mix c.c_rr;
  let acc = ref 0 in
  let slot n s = c.c_off.(n) + s in
  let add x = acc := !acc lxor x in
  Seq.iter
    (fun (p, r) ->
      iter_rows (fun n s v -> add (Hashtbl.hash (slot n s, 0, p, v))) r.med;
      iter_rows (fun n s v -> add (Hashtbl.hash (slot n s, 1, p, v))) r.lpref;
      iter_rows (fun n s () -> add (Hashtbl.hash (slot n s, 2, p))) r.deny)
    (all_rows t);
  mix !acc;
  !h

let pp_summary ppf t =
  let denies, meds = count_policies t in
  Format.fprintf ppf "%d nodes, %d sessions, %d ASes, %d filters, %d med rules"
    (node_count t) (t.nsessions / 2) (Hashtbl.length t.by_as) denies meds

(* Deliberate invariant violations for the Analysis test suite.  Every
   safe constructor ([connect], [duplicate_node]) maintains session
   symmetry and AS membership, so the only way to exercise the lint's
   Error paths is to corrupt a net on purpose.  Generations are still
   bumped (a corrupted net must not warm-resume), but no mutation event
   fires — these are not real mutators. *)
module Unsafe = struct
  let push_half_session t n ~peer ?(kind = Ebgp) ?(s_class = class_none)
      ?(peer_session = -1) () =
    bump_generation t;
    let s = fresh_session ~peer ~kind ~s_class in
    s.peer_session <- peer_session;
    let i = Vec.push (node t n).sessions s in
    t.nsessions <- t.nsessions + 1;
    i

  let set_peer_session t n s v =
    bump_generation t;
    (session t n s).peer_session <- v

  let set_session_count t v =
    bump_generation t;
    t.nsessions <- v

  let detach_from_as t n =
    bump_generation t;
    match Hashtbl.find_opt t.by_as (asn_of t n) with
    | Some l -> l := List.filter (fun id -> id <> n) !l
    | None -> ()

  (* Seeded-race negative control: run [f t] on a freshly spawned
     domain with NO synchronization edge published to the probe layer
     — the Domain.join below really orders the mutation, but the
     detector is only told what the probes tell it, so a happens-before
     checker must flag the access and the ownership checker must see a
     second mutating domain.  A detector that stays silent here is
     broken. *)
  let from_foreign_domain t f = Domain.join (Domain.spawn (fun () -> f t))
end

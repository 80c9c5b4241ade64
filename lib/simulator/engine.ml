open Bgp

type outcome =
  | Converged
  | Truncated of { events : int; budget : int }
  | Diverged of { cycle_len : int }

let pp_outcome ppf = function
  | Converged -> Format.pp_print_string ppf "converged"
  | Truncated { events; budget } ->
      Format.fprintf ppf "truncated (%d events, budget %d)" events budget
  | Diverged { cycle_len } ->
      Format.fprintf ppf "diverged (cycle of %d events)" cycle_len

(* Flat-memory per-prefix state.  The RIB-In is one contiguous route
   slab in the CSR slot order of {!Net.Csr}: node [n]'s slots are
   [off.(n) .. off.(n+1) - 1], and an empty slot holds the physical
   sentinel {!Rattr.no_route} instead of an option box.  Together with
   hash-consed routes ({!Intern.rattr}) this keeps the whole per-prefix
   state in three flat arrays: no per-node arrays to chase, warm copies
   are two [Array.copy] calls, and fingerprinting is a linear scan. *)
type state = {
  pfx : Prefix.t;
  gen : int;  (* Net.generation at run time; gates warm resumption *)
  nodes : int;
  off : int array;  (* shared with the Csr of [gen]; length nodes + 1 *)
  slab : Rattr.t array;  (* RIB-In slots; Rattr.no_route = empty *)
  best : Rattr.t array;  (* per node; Rattr.no_route = no route *)
  originates : bool array;
  resumed : bool;  (* seeded from a previous state, not from scratch *)
  mutable outcome : outcome;
  mutable events : int;
  mutable fp : int;
      (* memoised {!state_fingerprint}, [fp_unset] until known.  A
         state is frozen once [exec] returns, so the memo never goes
         stale; a cold state fills it on first ask, a warm state from a
         fingerprinted parent as [warm] returns. *)
}

(* If a real fingerprint equals the sentinel it is simply recomputed on
   every call — correct, only slower.  A plain int rather than [Lazy]:
   forcing one lazy value from two domains at once raises, while two
   domains racing to store the same int is harmless. *)
let fp_unset = min_int

(* Metrics are flushed once per run from locally accumulated counts —
   never touched per event — so the instrumented engine is the
   un-instrumented engine plus a handful of atomic adds at the end. *)
let runs_m = Obs.Metrics.counter "engine.runs"

let events_m = Obs.Metrics.counter "engine.events_drained"

let escalations_m = Obs.Metrics.counter "engine.budget_escalations"

let fingerprints_m = Obs.Metrics.counter "engine.watchdog_fingerprints"

let truncated_m = Obs.Metrics.counter "engine.truncated"

let diverged_m = Obs.Metrics.counter "engine.diverged"

let state_fingerprints_m = Obs.Metrics.counter "engine.state_fingerprints"

let resume_hits_m = Obs.Metrics.counter "engine.warm_resume_hits"

let resume_misses_m = Obs.Metrics.counter "engine.warm_resume_misses"

let verified_m = Obs.Metrics.counter "warm.verified"

let divergences_m = Obs.Metrics.counter "warm.divergences"

let prefix st = st.pfx

let generation st = st.gen

let outcome st = st.outcome

let converged st = st.outcome = Converged

let resumed st = st.resumed

let events st = st.events

(* Nodes created after a run (the refiner's duplicates) have no state
   yet: report them as empty rather than out of bounds. *)
let best st n =
  if n >= st.nodes then None
  else
    let r = st.best.(n) in
    if Rattr.is_route r then Some r else None

let rib_in st n =
  if n >= st.nodes then []
  else begin
    let base = st.off.(n) in
    let acc = ref [] in
    for k = st.off.(n + 1) - 1 downto base do
      let r = st.slab.(k) in
      if Rattr.is_route r then acc := (k - base, r) :: !acc
    done;
    !acc
  end

(* Candidate traversal without building a list: the originated route
   (if any) first, then the RIB-In slots in session order — exactly the
   decision-process input order. *)
let iter_candidates st net n f =
  if n < st.nodes then begin
    if st.originates.(n) then
      f (Rattr.originated ~own_ip:(Ipv4.to_int (Net.ip_of net n)));
    for k = st.off.(n) to st.off.(n + 1) - 1 do
      let r = st.slab.(k) in
      if Rattr.is_route r then f r
    done
  end

let fold_candidates st net n ~init ~f =
  let acc = ref init in
  iter_candidates st net n (fun r -> acc := f !acc r);
  !acc

let candidates st net n =
  List.rev (fold_candidates st net n ~init:[] ~f:(fun acc r -> r :: acc))

(* [Hashtbl.hash] of the [learned] constructors and of the small
   [learned_class] values, precomputed: the fingerprint kernel mixes
   both for every route. *)
let learned_hash =
  let h l = Hashtbl.hash (l : Rattr.learned) in
  [| h Rattr.Originated; h Rattr.From_ebgp; h Rattr.From_ibgp |]

let learned_index : Rattr.learned -> int = function
  | Rattr.Originated -> 0
  | Rattr.From_ebgp -> 1
  | Rattr.From_ibgp -> 2

let class_hashes = Array.init 66 (fun i -> Hashtbl.hash (i - 1))

let class_hash c =
  if c >= -1 && c < 65 then class_hashes.(c + 1) else Hashtbl.hash c

(* Mix one route into the running hash [h].  Paths are folded inline
   ({!Intern.fold_path_hash}): equal to the memoised {!Intern.path_hash}
   without its per-domain table probe. *)
let mix_route h (r : Rattr.t) =
  let mix h x = (h * 1000003) lxor (x land max_int) in
  if Rattr.is_route r then begin
    let h = mix h (Intern.fold_path_hash r.Rattr.path) in
    let h = mix h r.Rattr.lpref in
    let h = mix h r.Rattr.med in
    let h = mix h r.Rattr.igp in
    let h = mix h r.Rattr.from_node in
    let h = mix h r.Rattr.from_ip in
    let h = mix h r.Rattr.from_session in
    let h = mix h learned_hash.(learned_index r.Rattr.learned) in
    mix h (class_hash r.Rattr.learned_class)
  end
  else mix h 0x5bd1e995

let mix_routes h routes =
  let h = ref h in
  for i = 0 to Array.length routes - 1 do
    h := mix_route !h (Array.unsafe_get routes i)
  done;
  !h

(* Full-state fingerprint for the oscillation watchdog.  The transition
   function is deterministic, so an exact repeat of (RIBs, best routes,
   queue content and order) with work still queued proves a genuine
   cycle.  [Hashtbl.hash] alone would be unsound here — it truncates
   deep/wide structures such as long AS-paths — so every route is
   folded field by field into a polynomial hash over the full
   native-int range, paths included element by element.  The slab is
   mixed in linear order, which is the reference engine's node-major
   slot order — the two implementations fingerprint identically by
   construction. *)
let fingerprint st iter_queue queued =
  let h = ref (mix_routes (mix_routes 0x42 st.best) st.slab) in
  let mix x = h := (!h * 1000003) lxor (x land max_int) in
  iter_queue (fun u -> mix (u + 0x9e3779b9));
  for u = 0 to st.nodes - 1 do
    mix (Bool.to_int queued.(u))
  done;
  !h

(* Routing-content fingerprint (no queue): what warm-vs-cold
   verification and churn reports compare.  It is a positional,
   additive content hash — the wrapping sum of one term per non-empty
   entry, [best_hash i] per node and [slot_hash k] per RIB-In slot — so
   identical best routes and RIB-Ins give identical fingerprints however
   the fixed point was reached, and a state that differs from another
   in a few entries has a fingerprint that differs by a few terms.  Each
   term is the watchdog's field mix seeded with a position salt, then
   finalised with bijective xor-shift/multiply steps so the sum spreads
   over the whole int range. *)
let finalise h =
  let h = h lxor (h lsr 32) in
  let h = h * 0x1f51afd7ed558ccd in
  let h = h lxor (h lsr 29) in
  let h = h * 0x04ceb9fe1a85ec53 in
  h lxor (h lsr 32)

let route_hash salt r = if Rattr.is_route r then finalise (mix_route salt r) else 0

let best_hash i r = route_hash (2 * i) r

let slot_hash k r = route_hash ((2 * k) + 1) r

let content_hash st =
  let h = ref 0 in
  let best = st.best and slab = st.slab in
  for i = 0 to Array.length best - 1 do
    h := !h + best_hash i (Array.unsafe_get best i)
  done;
  for k = 0 to Array.length slab - 1 do
    h := !h + slot_hash k (Array.unsafe_get slab k)
  done;
  !h

(* Computed in full at most once per state (see [fp]); a warm state
   whose parent was fingerprinted never gets here (see
   [inherit_fingerprint]). *)
let state_fingerprint st =
  let fp = st.fp in
  if fp <> fp_unset then fp
  else begin
    let fp = content_hash st in
    Obs.Metrics.incr state_fingerprints_m;
    st.fp <- fp;
    fp
  end

(* The fingerprint of a warm state from its parent's: the warm copy
   shares every record its run did not replace, so only the entries
   that are not physically the parent's can change the sum — swap their
   terms.  One pointer-compare pass over the two states' arrays, with
   no hashing of untouched routes.  A structurally equal replacement
   swaps equal terms, which is harmless. *)
let inherit_fingerprint ~parent st =
  let h = ref parent.fp in
  let pb = parent.best and b = st.best in
  for i = 0 to Array.length b - 1 do
    let r = Array.unsafe_get b i and r0 = Array.unsafe_get pb i in
    if r != r0 then h := !h + best_hash i r - best_hash i r0
  done;
  let ps = parent.slab and s = st.slab in
  for k = 0 to Array.length s - 1 do
    let r = Array.unsafe_get s k and r0 = Array.unsafe_get ps k in
    if r != r0 then h := !h + slot_hash k r - slot_hash k r0
  done;
  st.fp <- !h

let same_state a b =
  a.pfx = b.pfx && a.nodes = b.nodes
  && a.off = b.off
  && (let ok = ref true in
      Array.iteri
        (fun i r -> if not (Rattr.same_route r b.best.(i)) then ok := false)
        a.best;
      Array.iteri
        (fun k r -> if not (Rattr.same_route r b.slab.(k)) then ok := false)
        a.slab;
      !ok)

(* Loop detection without [Array.exists]'s closure allocation. *)
let path_mem (path : int array) x =
  let n = Array.length path in
  let rec go i = i < n && (path.(i) = x || go (i + 1)) in
  go 0

(* The watchdog keeps at most this many fingerprints; real oscillation
   cycles are tiny (the bad gadget's is < 20 events), so a bounded
   history loses nothing while capping memory on huge budgets. *)
let watchdog_history_cap = 4096

(* Per-run working arrays, one set per domain.  Slot- and node-sized
   arrays exceed the minor heap's largest block on any real world, so
   allocating them per run sends every run to the major heap and the GC
   work they trigger dominates short warm resumes.  Instead each domain
   keeps one set in [Domain.DLS], grown on demand and clean at rest:
   [deny] all false; [med_in], [lpref_for] and [igp_memo] all [min_int];
   [queued] all false; [orig] all {!Rattr.no_route}.  A run dirties only
   what it touches — this prefix's rule slots, the [igp_dirty] stack of
   memoised IGP slots, the nodes left queued, the originators — and
   cleans exactly that on the way out, exception or not, so reuse costs
   O(what the run touched), not O(slots).  Systhreads of one domain
   share its DLS and [on_best_change] may re-enter the engine, so the
   set is claimed through [busy]; a run that finds it taken gets a
   private, exactly sized set, as if there were no reuse. *)
type scratch = {
  busy : bool Atomic.t;
  mutable deny : bool array;
  mutable med_in : int array;
  mutable lpref_for : int array;
  mutable igp_memo : int array;
  mutable igp_dirty : int array;  (* stack of set [igp_memo] slots *)
  mutable qbuf : int array;  (* ring storage; no reset needed *)
  mutable queued : bool array;
  mutable orig : Rattr.t array;
}

let make_scratch ~nodes ~slots =
  {
    busy = Atomic.make false;
    deny = Array.make slots false;
    med_in = Array.make slots min_int;
    lpref_for = Array.make slots min_int;
    igp_memo = Array.make slots min_int;
    igp_dirty = Array.make slots 0;
    qbuf = Array.make (nodes + 1) 0;
    queued = Array.make nodes false;
    orig = Array.make nodes Rattr.no_route;
  }

let scratch_key = Domain.DLS.new_key (fun () -> make_scratch ~nodes:0 ~slots:0)

let scratch_fallbacks_m = Obs.Metrics.counter "engine.scratch_fallbacks"

(* Geometric growth: the refiner densifies its model a few slots at a
   time, and each growth is one fresh (hence clean) set of arrays. *)
let grown have need = if need <= have then have else max need (have + (have / 2))

let claim_scratch ~nodes ~slots =
  let sc = Domain.DLS.get scratch_key in
  if not (Atomic.compare_and_set sc.busy false true) then begin
    Obs.Metrics.incr scratch_fallbacks_m;
    make_scratch ~nodes ~slots
  end
  else begin
    (* Should growth itself raise, [busy] stays set and every later run
       of this domain takes the private path: slower, never wrong. *)
    if Array.length sc.deny < slots then begin
      let len = grown (Array.length sc.deny) slots in
      sc.deny <- Array.make len false;
      sc.med_in <- Array.make len min_int;
      sc.lpref_for <- Array.make len min_int;
      sc.igp_memo <- Array.make len min_int;
      sc.igp_dirty <- Array.make len 0
    end;
    if Array.length sc.queued < nodes then begin
      let len = grown (Array.length sc.queued) nodes in
      sc.qbuf <- Array.make (len + 1) 0;
      sc.queued <- Array.make len false;
      sc.orig <- Array.make len Rattr.no_route
    end;
    sc
  end

(* Shared drain core: seed the queue (cold start: the originators; warm
   start: peers disturbed by replayed exports), then process nodes
   until the queue empties, the budget (after escalations) runs out, or
   the watchdog proves a cycle.  [seed ~enqueue ~replay] fills the
   initial queue; [replay u] re-exports [u]'s current best, charging
   one event.

   The whole hot path runs on the {!Net.Csr} arrays hoisted into locals
   below: walking a node's sessions is a linear int-array scan, the
   mirror slot at the peer is one [rev] read, and the work queue is a
   ring buffer, so the only per-event allocation is a short-lived
   candidate record on an actual RIB-In change.  The slot- and
   node-sized working arrays come from the domain's [scratch] and go
   back clean, so the per-run allocation is small blocks only. *)
let exec ?max_events ?max_escalations ?on_best_change net st ~kind ~seed =
  let t0 = Obs.Trace.now_us () in
  let escalated = ref 0 in
  let fingerprinted = ref 0 in
  let n = st.nodes in
  let budget =
    match max_events with Some b -> b | None -> 1000 + (200 * n)
  in
  let budget = Faultinject.shrink_budget ~key:(Hashtbl.hash st.pfx) budget in
  (* An explicit [max_events] is a caller-chosen hard cap (tests, budget
     experiments): honour it exactly unless escalation is requested too.
     The default budget is a heuristic, so exhausting it earns ×2 and ×4
     retries before the run is declared truncated. *)
  let escalations =
    match (max_escalations, max_events) with
    | Some k, _ -> max 0 k
    | None, Some _ -> 0
    | None, None -> 2
  in
  (* One read-side probe per run: the whole drain reads the structure
     (via the CSR arrays) and the per-prefix policy tables (flattened
     below), so a mutation unordered with this run races it. *)
  Net.probe_read net ~site:"engine.exec";
  let c = Net.csr net in
  let off = Net.Csr.off c in
  let peer = Net.Csr.peer c in
  let rev = Net.Csr.rev c in
  let kinds = Net.Csr.kinds c in
  let classes = Net.Csr.classes c in
  let lprefs = Net.Csr.lprefs c in
  let carries = Net.Csr.carries c in
  let rrs = Net.Csr.rr_clients c in
  let asns = Net.Csr.asns c in
  let ips = Net.Csr.ips c in
  let slab = st.slab in
  let med_default = Net.default_med net in
  let nslots = Array.length slab in
  (* Per-run flattening of this prefix's policy rules and of the export
     matrix: the prefix's sparse rows are written into slot-indexed
     arrays of the domain's scratch at run start (and cleared at run
     end), costing one write per rule, instead of one lookup per
     advertisement.  The net is frozen while a simulation runs
     (mutation discipline), so these snapshots cannot go stale
     mid-run. *)
  let sc = claim_scratch ~nodes:n ~slots:nslots in
  let deny = sc.deny and med_in = sc.med_in and lpref_for = sc.lpref_for in
  (* Session classes (and hence learned classes, which are session
     classes or -1 for originated routes) are small non-negative ints,
     so the export matrix collapses to a dense boolean table. *)
  let maxc = Net.Csr.max_class c in
  let cw = maxc + 2 in
  let export_ok = Array.make (cw * cw) false in
  for lc = -1 to maxc do
    for tc = -1 to maxc do
      export_ok.(((lc + 1) * cw) + tc + 1) <-
        Net.export_matrix net ~learned_class:lc ~to_class:tc
    done
  done;
  (* FIFO work queue as a ring over an int array: the [queued] dedup
     bitmap bounds occupancy at [n], so capacity [n + 1] never
     overflows and the drain loop allocates nothing per event (a
     [Queue.t] would cons one cell per push). *)
  let qcap = n + 1 in
  let qbuf = sc.qbuf and queued = sc.queued in
  let qhead = ref 0 in
  let qtail = ref 0 in
  let enqueue u =
    if not queued.(u) then begin
      queued.(u) <- true;
      qbuf.(!qtail) <- u;
      let t = !qtail + 1 in
      qtail := if t = qcap then 0 else t
    end
  in
  let queue_empty () = !qhead = !qtail in
  let dequeue () =
    let u = qbuf.(!qhead) in
    let h = !qhead + 1 in
    qhead := if h = qcap then 0 else h;
    u
  in
  (* Head-to-tail iteration preserves FIFO order, so watchdog
     fingerprints match the reference engine's [Queue.iter]. *)
  let iter_queue f =
    let i = ref !qhead in
    while !i <> !qtail do
      f qbuf.(!i);
      let j = !i + 1 in
      i := if j = qcap then 0 else j
    done
  in
  let steps = Net.decision_steps net in
  let med_scope = Net.med_scope net in
  (* Neighbour-scoped MED (RFC 4271 §9.1.2.2) is not a total order over
     candidates, so the pairwise-minimum fast path below would be wrong
     for it: run the real elimination process instead — in place over a
     per-run scratch buffer sized to the widest node. *)
  let scoped_med =
    med_scope = Decision.Same_neighbor && List.mem Decision.Med steps
  in
  let scratch =
    if not scoped_med then [||]
    else begin
      let maxdeg = ref 0 in
      for u = 0 to n - 1 do
        let d = off.(u + 1) - off.(u) in
        if d > !maxdeg then maxdeg := d
      done;
      Array.make (!maxdeg + 1) Rattr.no_route
    end
  in
  let scratch_keys = Array.make (Array.length scratch) 0 in
  (* Per-run lazy memo of the IGP cost per receiving slot: the user's
     igp function can be arbitrarily expensive (netgen's does hash
     lookups), and convergence re-imports over the same iBGP slot many
     times.  The net is frozen during a run, so the cost cannot
     change.  Each slot set is pushed on [igp_dirty] before it is
     written, so the run end clears exactly those. *)
  let igp_memo = sc.igp_memo and igp_dirty = sc.igp_dirty in
  let ndirty = ref 0 in
  let igp_at kr p u =
    let g = igp_memo.(kr) in
    if g <> min_int then g
    else begin
      let g = Net.igp_cost net p u in
      if g <> min_int then begin
        igp_dirty.(!ndirty) <- kr;
        incr ndirty;
        igp_memo.(kr) <- g
      end;
      g
    end
  in
  (* Originated routes are stable for the whole run: intern each
     originator's once (below) instead of allocating per decision
     process. *)
  let orig = sc.orig in
  let originated u = orig.(u) in
  let recompute_best_scoped u =
    let m = ref 0 in
    if st.originates.(u) then begin
      scratch.(0) <- originated u;
      m := 1
    end;
    for k = off.(u) to off.(u + 1) - 1 do
      let r = slab.(k) in
      if Rattr.is_route r then begin
        scratch.(!m) <- r;
        incr m
      end
    done;
    match Decision.select_into ~med_scope steps scratch ~keys:scratch_keys !m with
    | Some r -> r
    | None -> Rattr.no_route
  in
  (* Allocation-free best computation: the elimination process equals
     the lexicographic minimum under Decision.compare_routes, first in
     RIB-In order winning ties. *)
  let recompute_best u =
    if scoped_med then recompute_best_scoped u
    else begin
      let best = ref Rattr.no_route in
      if st.originates.(u) then best := originated u;
      for k = off.(u) to off.(u + 1) - 1 do
        let r = slab.(k) in
        if Rattr.is_route r then
          if not (Rattr.is_route !best) then best := r
          else if Decision.compare_routes steps r !best < 0 then best := r
      done;
      !best
    end
  in
  (* Re-export node [u]'s current best over every slot, importing at
     each peer's mirror slot and enqueueing peers whose RIB-In changed.
     The export and import decisions of the reference engine, fused:
     the advertisement either dies (sentinel) or becomes one route
     written straight into the peer's slab slot.  The eBGP path is
     prepended once per call and shared by every slot it reaches.  It
     is a fresh array, not {!Intern.prepend}'s canonical one: on large
     worlds the domain's prepend table outgrows the caches — a probe
     measured ~0.8 us on the 1.5k-AS §SCALE world (2-core x86 host),
     against a few ns for the allocation — and equality never depended
     on interning ({!Rattr.same_path}). *)
  let push_exports u best' =
    let has = Rattr.is_route best' in
    let ebgp_path =
      if not has then [||]
      else
        let path = best'.Rattr.path in
        let len = Array.length path in
        let out = Array.make (len + 1) asns.(u) in
        Array.blit path 0 out 1 len;
        out
    in
    let own_ip = ips.(u) in
    let base = off.(u) in
    (* The advertisement died on this session: withdraw the incumbent
       if there is one. *)
    let kill kr p =
      if Rattr.is_route slab.(kr) then begin
        slab.(kr) <- Rattr.no_route;
        enqueue p
      end
    in
    (* The advertisement survived: compare the computed fields against
       the incumbent (the [same_route] criteria, inlined) and allocate
       a record only on an actual change — suppressed imports, the
       vast majority, allocate nothing.  The records are deliberately
       NOT table-interned either: measured on 2k-AS worlds,
       cold-convergence imports almost never recur, so an
       {!Intern.rattr} probe per write costs 20-35% throughput while
       the table only retains garbage.  Sharing where reuse is real
       comes from the interned originated routes. *)
    let store kr p path lpref med igp learned =
      let cur = slab.(kr) in
      if
        Rattr.is_route cur
        && cur.Rattr.from_node = u
        && Rattr.same_path cur.Rattr.path path
        && cur.Rattr.lpref = lpref
        && cur.Rattr.med = med
        && cur.Rattr.igp = igp
      then ()
      else begin
        slab.(kr) <-
          {
            Rattr.path;
            lpref;
            med;
            igp;
            from_node = u;
            from_ip = own_ip;
            from_session = kr - off.(p);
            learned;
            learned_class = classes.(kr);
          };
        enqueue p
      end
    in
    for k = base to off.(u + 1) - 1 do
      let p = peer.(k) in
      let kr = rev.(k) in
      if not has then kill kr p
      else begin
        let r = best' in
        let ibgp = kinds.(k) = 1 in
        if r.Rattr.from_node = p then kill kr p
        else if
          ibgp
          && r.Rattr.learned = Rattr.From_ibgp
          && not
               (* RFC 4456 route reflection: an iBGP-learned route is
                  re-advertised over iBGP to clients always, and to
                  non-clients when it was learned from a client. *)
               (rrs.(k) = 1
               || (r.Rattr.from_session >= 0
                  && rrs.(base + r.Rattr.from_session) = 1))
        then kill kr p
        else if deny.(k) then kill kr p
        else if
          (not ibgp)
          && not export_ok.(((r.Rattr.learned_class + 1) * cw) + classes.(k) + 1)
        then kill kr p
        else begin
          let path = if ibgp then r.Rattr.path else ebgp_path in
          if kinds.(kr) = 0 then begin
            (* eBGP import at [p]: loop check, then import policy. *)
            if path_mem path asns.(p) then kill kr p
            else begin
              let lpref =
                let lp = lpref_for.(kr) in
                if lp <> min_int then lp
                else if carries.(kr) = 1 then r.Rattr.lpref
                else
                  let l = lprefs.(kr) in
                  if l = Net.Csr.no_lpref then 100 else l
              in
              let med =
                let m = med_in.(kr) in
                if m <> min_int then m else med_default
              in
              store kr p path lpref med 0 Rattr.From_ebgp
            end
          end
          else
            (* LOCAL_PREF and MED travel unchanged inside the AS; the
               IGP cost to the egress (the announcing router)
               implements hot-potato ranking. *)
            store kr p path r.Rattr.lpref r.Rattr.med (igp_at kr p u)
              Rattr.From_ibgp
        end
      end
    done
  in
  let process u =
    st.events <- st.events + 1;
    let best' = recompute_best u in
    if not (Rattr.same_route st.best.(u) best') then begin
      st.best.(u) <- best';
      (match on_best_change with
      | Some f -> f u (if Rattr.is_route best' then Some best' else None)
      | None -> ());
      push_exports u best'
    end
  in
  let replay u =
    st.events <- st.events + 1;
    push_exports u st.best.(u)
  in
  (* Fingerprinting every event would tax the common case, so the
     watchdog arms only once half the initial budget is spent — any run
     that deep is already suspect, and a genuine cycle keeps repeating,
     so arming late never misses one.  Its history is only allocated
     then, too. *)
  let threshold = budget / 2 in
  let history_tbl = ref None in
  let rec drain budget escalations_left =
    if not (queue_empty ()) then
      if st.events >= budget then
        if escalations_left > 0 then begin
          Logs.debug (fun m ->
              m "engine: prefix %a exhausted budget %d; escalating to %d"
                Prefix.pp st.pfx budget (budget * 2));
          incr escalated;
          drain (budget * 2) (escalations_left - 1)
        end
        else begin
          st.outcome <- Truncated { events = st.events; budget };
          Logs.warn (fun m ->
              m
                "engine: prefix %a hit its event budget (%d events, budget \
                 %d); returning a partial, non-converged state"
                Prefix.pp st.pfx st.events budget)
        end
      else begin
        let u = dequeue () in
        queued.(u) <- false;
        process u;
        if st.events >= threshold && not (queue_empty ()) then
          let fp = (incr fingerprinted; fingerprint st iter_queue queued) in
          let history =
            match !history_tbl with
            | Some h -> h
            | None ->
                let h = Hashtbl.create 64 in
                history_tbl := Some h;
                h
          in
          match Hashtbl.find_opt history fp with
          | Some e0 ->
              st.outcome <- Diverged { cycle_len = st.events - e0 };
              Logs.warn (fun m ->
                  m
                    "engine: prefix %a oscillates (state repeated after %d \
                     events, cycle length %d); returning a partial, \
                     non-converged state"
                    Prefix.pp st.pfx st.events (st.events - e0))
          | None ->
              if Hashtbl.length history >= watchdog_history_cap then
                Hashtbl.reset history;
              Hashtbl.add history fp st.events;
              drain budget escalations_left
        else drain budget escalations_left
      end
  in
  (* Return the scratch clean: clear this prefix's rule slots, the
     memoised IGP slots, whatever a truncated, diverged or raising run
     left queued, and the originated routes.  Under [Fun.protect], so a
     raising [on_best_change] cannot leave stale entries behind. *)
  let clean () =
    Net.iter_prefix_rules net st.pfx
      ~deny:(fun u s -> deny.(off.(u) + s) <- false)
      ~med:(fun u s _ -> med_in.(off.(u) + s) <- min_int)
      ~lpref:(fun u s _ -> lpref_for.(off.(u) + s) <- min_int);
    for i = 0 to !ndirty - 1 do
      igp_memo.(igp_dirty.(i)) <- min_int
    done;
    iter_queue (fun u -> queued.(u) <- false);
    for u = 0 to n - 1 do
      if st.originates.(u) then orig.(u) <- Rattr.no_route
    done;
    Atomic.set sc.busy false
  in
  Fun.protect ~finally:clean (fun () ->
      Net.iter_prefix_rules net st.pfx
        ~deny:(fun u s -> deny.(off.(u) + s) <- true)
        ~med:(fun u s v -> med_in.(off.(u) + s) <- v)
        ~lpref:(fun u s v -> lpref_for.(off.(u) + s) <- v);
      for u = 0 to n - 1 do
        if st.originates.(u) then
          orig.(u) <- Intern.rattr (Rattr.originated ~own_ip:ips.(u))
      done;
      seed ~enqueue ~replay;
      drain budget escalations);
  Obs.Metrics.incr runs_m;
  Obs.Metrics.incr ~by:st.events events_m;
  if !escalated > 0 then Obs.Metrics.incr ~by:!escalated escalations_m;
  if !fingerprinted > 0 then
    Obs.Metrics.incr ~by:!fingerprinted fingerprints_m;
  (match st.outcome with
  | Converged -> ()
  | Truncated _ -> Obs.Metrics.incr truncated_m
  | Diverged _ -> Obs.Metrics.incr diverged_m);
  if Obs.Trace.enabled () then
    Obs.Trace.emit
      ~args:
        [
          ("prefix", Format.asprintf "%a" Prefix.pp st.pfx);
          ("kind", kind);
          ("outcome", Format.asprintf "%a" pp_outcome st.outcome);
          ("events", string_of_int st.events);
        ]
      ~name:"engine.simulate" ~ts_us:t0
      ~dur_us:(Obs.Trace.now_us () - t0)
      ();
  st

(* Slab-install probe: a state slab is written by exactly one run; the
   object is named per (net, prefix) so two unordered runs of the same
   prefix — or a reader holding the previous state — surface as a
   race.  Name formatting only happens with a probe hook installed. *)
let state_obj net pfx =
  Format.asprintf "%s/state/%a" (Net.probe_name net) Prefix.pp pfx

let cold ?max_events ?max_escalations ?on_best_change net ~prefix:pfx
    ~originators =
  if Obs.Probe.enabled () then
    Obs.Probe.write ~obj:(state_obj net pfx) ~site:"engine.install-cold";
  let c = Net.csr net in
  let n = Net.Csr.node_count c in
  let st =
    {
      pfx;
      gen = Net.generation net;
      nodes = n;
      off = Net.Csr.off c;
      slab = Array.make (Net.Csr.slot_count c) Rattr.no_route;
      best = Array.make n Rattr.no_route;
      originates = Array.make n false;
      resumed = false;
      outcome = Converged;
      events = 0;
      fp = fp_unset;
    }
  in
  List.iter (fun o -> st.originates.(o) <- true) originators;
  exec ?max_events ?max_escalations ?on_best_change net st ~kind:"cold"
    ~seed:(fun ~enqueue ~replay:_ -> List.iter enqueue originators)

let resumable net prev =
  converged prev
  && prev.gen = Net.generation net
  && prev.nodes = Net.node_count net

(* Precondition: [resumable net prev].  The flat layout makes the warm
   copy two [Array.copy] calls over contiguous arrays — no per-node
   copying; the frozen originator flags are shared unless they change —
   and a resume with nothing to replay copies nothing.

   Origination delta: nodes that gain or lose the originated route
   under the caller's [originators] set re-run their decision process
   from the warm state — a gained origination injects the route, a lost
   one withdraws it, and the delta propagates like any other best-route
   change.  Callers resuming with an unchanged originator set produce
   an empty delta, so the historical policy-only warm path is
   untouched. *)
let warm ?max_events ?max_escalations ?on_best_change net ~prev ~touched
    ~originators =
  if Obs.Probe.enabled () then begin
    let obj = state_obj net prev.pfx in
    Obs.Probe.read ~obj ~site:"engine.resume";
    Obs.Probe.write ~obj ~site:"engine.install-warm"
  end;
  let n = prev.nodes in
  let valid u = u >= 0 && u < n in
  let origin_delta =
    let lost = ref [] in
    for u = n - 1 downto 0 do
      if prev.originates.(u) && not (List.mem u originators) then
        lost := u :: !lost
    done;
    List.filter (fun o -> valid o && not prev.originates.(o)) originators
    |> List.rev_append !lost
    |> List.sort_uniq Int.compare
  in
  if origin_delta = [] && not (List.exists valid touched) then
    (* Nothing to replay: the drain would be empty and the result equal
       to [prev], so share its frozen arrays (and fingerprint). *)
    { prev with resumed = true; outcome = Converged; events = 0 }
  else begin
    let st =
      {
        prev with
        slab = Array.copy prev.slab;
        best = Array.copy prev.best;
        originates =
          (if origin_delta = [] then prev.originates
           else Array.copy prev.originates);
        resumed = true;
        outcome = Converged;
        events = 0;
        fp = fp_unset;
      }
    in
    List.iter (fun u -> st.originates.(u) <- not st.originates.(u)) origin_delta;
    let st =
      exec ?max_events ?max_escalations ?on_best_change net st ~kind:"warm"
        ~seed:(fun ~enqueue ~replay ->
          (* Replay every touched node's exports unconditionally: peers
             whose RIB-In changes under the new policy enqueue
             themselves; the touched node itself re-runs its decision
             process whenever a replayed import disturbs it.  An
             unchanged advertisement is suppressed by [same_route], so a
             no-op policy edit costs one event and drains
             immediately. *)
          List.iter enqueue origin_delta;
          List.iter (fun u -> if valid u then replay u) touched)
    in
    if prev.fp <> fp_unset then inherit_fingerprint ~parent:prev st;
    st
  end

(* The one place the warm mode is interpreted.  [Verify] re-runs every
   resume cold, no-op resumes included: the two runs must agree on
   convergence, and converged states must be the same; on a divergence
   the cold state wins.  The cold re-run goes straight to [cold], so it
   counts neither as a hit nor as a miss. *)
let simulate ?max_events ?max_escalations ?on_best_change ?from ?touched net
    ~prefix:pfx ~originators =
  let mode = Runtime.warm () in
  let from = if mode = Runtime.Warm_mode.Off then None else from in
  match from with
  | Some prev when resumable net prev && prev.pfx = pfx ->
      Obs.Metrics.incr resume_hits_m;
      let touched =
        match touched with Some t -> t | None -> Net.touched_nodes net pfx
      in
      let w =
        warm ?max_events ?max_escalations ?on_best_change net ~prev ~touched
          ~originators
      in
      if mode <> Runtime.Warm_mode.Verify then w
      else begin
        let c =
          cold ?max_events ?max_escalations net ~prefix:pfx ~originators
        in
        Obs.Metrics.incr verified_m;
        if converged c = converged w && ((not (converged c)) || same_state c w)
        then w
        else begin
          Obs.Metrics.incr divergences_m;
          Logs.err (fun m ->
              m "engine: warm-start divergence on prefix %a (cold %a fp=%x, \
                 warm %a fp=%x)"
                Prefix.pp pfx pp_outcome c.outcome (state_fingerprint c)
                pp_outcome w.outcome (state_fingerprint w));
          c
        end
      end
  | _ ->
      if Option.is_some from then Obs.Metrics.incr resume_misses_m;
      cold ?max_events ?max_escalations ?on_best_change net ~prefix:pfx
        ~originators

let originating st =
  let acc = ref [] in
  for u = Array.length st.originates - 1 downto 0 do
    if st.originates.(u) then acc := u :: !acc
  done;
  !acc

let best_full_path net st n =
  match best st n with
  | None -> None
  | Some r -> Some (Rattr.full_path ~own_as:(Net.asn_of net n) r)

(* Physical, not structural: a warm resume copies the previous best
   array, so a node its replay never touched keeps the very same
   record. *)
let same_selected net a b asn =
  let raw st n = if n >= st.nodes then Rattr.no_route else st.best.(n) in
  List.for_all (fun n -> raw a n == raw b n) (Net.nodes_of_as net asn)

let selected_paths net st asn =
  let paths =
    List.filter_map (fun n -> best_full_path net st n) (Net.nodes_of_as net asn)
  in
  List.sort_uniq Stdlib.compare paths

(* The pre-flat-slab engine, kept verbatim as a verification baseline.

   The flat-memory engine ({!Engine}) must be bit-identical to this
   implementation: same outcomes, same event counts, same state
   fingerprints, warm and cold.  The §SCALE bench and the QCheck
   equality test run both engines on the same worlds and compare —
   any divergence is a correctness bug in the flat engine, never a
   "both changed together" blind spot, because this module is frozen.

   Differences from the original are deliberately minimal: metrics and
   tracing are stripped (so baseline runs do not pollute the shared
   Obs registry the bench gates read), and [state_fingerprint] sums the
   flat engine's per-entry content terms over this engine's own RIBs,
   so the two fingerprints stay comparable.  {!Faultinject} is kept —
   it is keyed deterministically per prefix, so both engines shrink
   the same budgets under RD_FAULTS and stay comparable. *)

open Bgp
open Simulator

type outcome =
  | Converged
  | Truncated of { events : int; budget : int }
  | Diverged of { cycle_len : int }

type state = {
  pfx : Prefix.t;
  gen : int;
  rib_in : Rattr.t option array array;
  best : Rattr.t option array;
  originates : bool array;
  mutable outcome : outcome;
  mutable events : int;
}

let prefix st = st.pfx

let outcome st = st.outcome

let converged st = st.outcome = Converged

let events st = st.events

let best st n = if n >= Array.length st.best then None else st.best.(n)

let rib_in st n =
  if n >= Array.length st.rib_in then []
  else
    let slots = st.rib_in.(n) in
    let acc = ref [] in
    for i = Array.length slots - 1 downto 0 do
      match slots.(i) with Some r -> acc := (i, r) :: !acc | None -> ()
    done;
    !acc

let compute_export net st n s (si : Net.session_info) best ~ebgp_path =
  match best with
  | None -> None
  | Some (r : Rattr.t) ->
      if r.Rattr.from_node = si.Net.si_peer then None
      else if
        si.Net.si_kind = Net.Ibgp
        && r.Rattr.learned = Rattr.From_ibgp
        && not
             (si.Net.si_rr_client
             || (r.Rattr.from_session >= 0
                && Net.rr_client net n r.Rattr.from_session))
      then None
      else if Net.export_denied net n s st.pfx then None
      else if
        si.Net.si_kind = Net.Ebgp
        && not
             (Net.export_matrix net ~learned_class:r.Rattr.learned_class
                ~to_class:si.Net.si_class)
      then None
      else
        let path =
          match si.Net.si_kind with
          | Net.Ebgp -> ebgp_path
          | Net.Ibgp -> r.Rattr.path
        in
        Some (path, r)

let import net st ~sender:n ~sender_ip ~peer ~peer_as ~peer_session:ps
    (ri : Net.session_info) adv =
  match adv with
  | None -> None
  | Some (path, (orig : Rattr.t)) -> (
      match ri.Net.si_kind with
      | Net.Ebgp ->
          if Array.exists (fun a -> a = peer_as) path then None
          else
            let lpref =
              match Net.import_lpref_for net peer ps st.pfx with
              | Some v -> v
              | None ->
                  if ri.Net.si_carry then orig.Rattr.lpref
                  else
                    match ri.Net.si_lpref with Some v -> v | None -> 100
            in
            let med =
              match Net.session_med net peer ps st.pfx with
              | Some v -> v
              | None -> Net.default_med net
            in
            Some
              {
                Rattr.path;
                lpref;
                med;
                igp = 0;
                from_node = n;
                from_ip = sender_ip;
                from_session = ps;
                learned = Rattr.From_ebgp;
                learned_class = ri.Net.si_class;
              }
      | Net.Ibgp ->
          Some
            {
              Rattr.path;
              lpref = orig.Rattr.lpref;
              med = orig.Rattr.med;
              igp = Net.igp_cost net peer n;
              from_node = n;
              from_ip = sender_ip;
              from_session = ps;
              learned = Rattr.From_ibgp;
              learned_class = ri.Net.si_class;
            })

let push_exports net st enqueue u best' =
  let ebgp_path =
    match best' with
    | None -> [||]
    | Some (r : Rattr.t) ->
        Intern.prepend ~own_as:(Net.asn_of net u) r.Rattr.path
  in
  let own_ip = Ipv4.to_int (Net.ip_of net u) in
  Net.iter_sessions net u (fun s _peer ->
      let si = Net.session_info net u s in
      let peer = si.Net.si_peer in
      let adv = compute_export net st u s si best' ~ebgp_path in
      let ps = si.Net.si_reverse in
      let ri = Net.session_info net peer ps in
      let imported =
        import net st ~sender:u ~sender_ip:own_ip ~peer
          ~peer_as:(Net.asn_of net peer) ~peer_session:ps ri adv
      in
      if not (Rattr.same_advertisement st.rib_in.(peer).(ps) imported) then begin
        st.rib_in.(peer).(ps) <- imported;
        enqueue peer
      end)

let mix_route mix = function
  | None -> mix 0x5bd1e995
  | Some (r : Rattr.t) ->
      mix (Intern.path_hash r.Rattr.path);
      mix r.Rattr.lpref;
      mix r.Rattr.med;
      mix r.Rattr.igp;
      mix r.Rattr.from_node;
      mix r.Rattr.from_ip;
      mix r.Rattr.from_session;
      mix (Hashtbl.hash r.Rattr.learned);
      mix (Hashtbl.hash r.Rattr.learned_class)

let fingerprint st queue queued =
  let h = ref 0x42 in
  let mix x = h := (!h * 1000003) lxor (x land max_int) in
  Array.iter (mix_route mix) st.best;
  Array.iter (fun slots -> Array.iter (mix_route mix) slots) st.rib_in;
  Queue.iter (fun u -> mix (u + 0x9e3779b9)) queue;
  Array.iter (fun q -> mix (Bool.to_int q)) queued;
  !h

(* The shared positional content hash ({!Engine.state_fingerprint}),
   summed over this engine's own nested RIB-Ins: slots are numbered
   node-major in session order, which is the flat slab's layout. *)
let state_fingerprint st =
  let h = ref 0 in
  Array.iteri
    (fun n r -> Option.iter (fun r -> h := !h + Engine.best_hash n r) r)
    st.best;
  let k = ref 0 in
  Array.iter
    (Array.iter (fun r ->
         Option.iter (fun r -> h := !h + Engine.slot_hash !k r) r;
         incr k))
    st.rib_in;
  !h

let watchdog_history_cap = 4096

let exec ?max_events ?max_escalations net st ~seed =
  let n = Array.length st.best in
  let budget =
    match max_events with Some b -> b | None -> 1000 + (200 * n)
  in
  let budget = Faultinject.shrink_budget ~key:(Hashtbl.hash st.pfx) budget in
  let escalations =
    match (max_escalations, max_events) with
    | Some k, _ -> max 0 k
    | None, Some _ -> 0
    | None, None -> 2
  in
  let queue = Queue.create () in
  let queued = Array.make n false in
  let enqueue u =
    if not queued.(u) then begin
      queued.(u) <- true;
      Queue.push u queue
    end
  in
  let steps = Net.decision_steps net in
  let med_scope = Net.med_scope net in
  let scoped_med =
    med_scope = Decision.Same_neighbor && List.mem Decision.Med steps
  in
  let recompute_best_scoped u =
    let acc = ref [] in
    let slots = st.rib_in.(u) in
    for i = Array.length slots - 1 downto 0 do
      match slots.(i) with Some r -> acc := r :: !acc | None -> ()
    done;
    let candidates =
      if st.originates.(u) then
        Rattr.originated ~own_ip:(Ipv4.to_int (Net.ip_of net u)) :: !acc
      else !acc
    in
    Decision.select ~med_scope steps candidates
  in
  let recompute_best u =
    if scoped_med then recompute_best_scoped u
    else begin
      let best = ref None in
      if st.originates.(u) then
        best :=
          Some (Rattr.originated ~own_ip:(Ipv4.to_int (Net.ip_of net u)));
      let slots = st.rib_in.(u) in
      for i = 0 to Array.length slots - 1 do
        match slots.(i) with
        | None -> ()
        | Some r -> (
            match !best with
            | None -> best := Some r
            | Some b ->
                if Decision.compare_routes steps r b < 0 then best := Some r)
      done;
      !best
    end
  in
  let process u =
    st.events <- st.events + 1;
    let best' = recompute_best u in
    if not (Rattr.same_advertisement st.best.(u) best') then begin
      st.best.(u) <- best';
      push_exports net st enqueue u best'
    end
  in
  let replay u =
    st.events <- st.events + 1;
    push_exports net st enqueue u st.best.(u)
  in
  seed ~enqueue ~replay;
  let threshold = budget / 2 in
  let history = Hashtbl.create 64 in
  let rec drain budget escalations_left =
    if not (Queue.is_empty queue) then
      if st.events >= budget then
        if escalations_left > 0 then drain (budget * 2) (escalations_left - 1)
        else st.outcome <- Truncated { events = st.events; budget }
      else begin
        let u = Queue.pop queue in
        queued.(u) <- false;
        process u;
        if st.events >= threshold && not (Queue.is_empty queue) then
          let fp = fingerprint st queue queued in
          match Hashtbl.find_opt history fp with
          | Some e0 -> st.outcome <- Diverged { cycle_len = st.events - e0 }
          | None ->
              if Hashtbl.length history >= watchdog_history_cap then
                Hashtbl.reset history;
              Hashtbl.add history fp st.events;
              drain budget escalations_left
        else drain budget escalations_left
      end
  in
  drain budget escalations;
  st

let cold ?max_events ?max_escalations net ~prefix:pfx ~originators =
  let n = Net.node_count net in
  let st =
    {
      pfx;
      gen = Net.generation net;
      rib_in =
        Array.init n (fun i -> Array.make (Net.session_count_of net i) None);
      best = Array.make n None;
      originates = Array.make n false;
      outcome = Converged;
      events = 0;
    }
  in
  List.iter (fun o -> st.originates.(o) <- true) originators;
  exec ?max_events ?max_escalations net st ~seed:(fun ~enqueue ~replay:_ ->
      List.iter enqueue originators)

let resumable net prev =
  converged prev
  && prev.gen = Net.generation net
  && Array.length prev.best = Net.node_count net

let warm ?max_events ?max_escalations net ~prev ~touched ~originators =
  let st =
    {
      pfx = prev.pfx;
      gen = prev.gen;
      rib_in = Array.map Array.copy prev.rib_in;
      best = Array.copy prev.best;
      originates = Array.copy prev.originates;
      outcome = Converged;
      events = 0;
    }
  in
  let n = Array.length st.best in
  let now = Array.make n false in
  List.iter (fun o -> if o >= 0 && o < n then now.(o) <- true) originators;
  let origin_delta = ref [] in
  for u = n - 1 downto 0 do
    if now.(u) <> st.originates.(u) then begin
      st.originates.(u) <- now.(u);
      origin_delta := u :: !origin_delta
    end
  done;
  exec ?max_events ?max_escalations net st ~seed:(fun ~enqueue ~replay ->
      List.iter enqueue !origin_delta;
      List.iter (fun u -> if u >= 0 && u < n then replay u) touched)

let simulate ?max_events ?max_escalations ?from ?touched net ~prefix:pfx
    ~originators =
  match from with
  | Some prev when resumable net prev && prev.pfx = pfx ->
      let touched =
        match touched with Some t -> t | None -> Net.touched_nodes net pfx
      in
      warm ?max_events ?max_escalations net ~prev ~touched ~originators
  | _ -> cold ?max_events ?max_escalations net ~prefix:pfx ~originators

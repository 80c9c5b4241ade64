(** Per-prefix route propagation to convergence.

    Like C-BGP (paper §2, §4.1), the engine computes the steady state of
    BGP for one prefix at a time: originators inject the route, nodes
    apply import policies, run the decision process and re-export their
    best route until no announcement changes anything.  The result gives
    access to every node's RIB-In and best route, which is exactly what
    the matching metrics of §4.2 inspect. *)

open Bgp

type state

type outcome =
  | Converged  (** the event queue drained: a true steady state. *)
  | Truncated of { events : int; budget : int }
      (** the event budget (after any escalations) ran out with work
          still queued; [events] node activations were performed against
          a final budget of [budget].  The state is partial. *)
  | Diverged of { cycle_len : int }
      (** the watchdog saw the exact full state (RIBs, best routes,
          event queue) repeat with work still queued — a genuine policy
          oscillation, since the transition function is deterministic.
          [cycle_len] is the number of events between the repeats. *)

val simulate :
  ?max_events:int ->
  ?max_escalations:int ->
  ?on_best_change:(int -> Rattr.t option -> unit) ->
  ?from:state ->
  ?touched:int list ->
  Net.t ->
  prefix:Prefix.t ->
  originators:int list ->
  state
(** The single simulation entry point.  Simulate [prefix] to
    convergence on [net], starting cold from [originators] — or, when
    [from] is a {!resumable} previous state of the {e same} prefix,
    warm: the previous converged state is copied and only the exports
    of the [touched] nodes (default {!Net.touched_nodes}) are
    replayed.  A warm resume also honours origination changes: nodes
    present in [originators] but not originating in [from] (and vice
    versa) have their flag flipped and their decision process re-run,
    so announce / withdraw / MOAS events replay incrementally without
    a cold rebuild.  A resume with nothing to replay — no [touched]
    node and an unchanged originator set — cannot change anything: it
    returns a new state (resumed, 0 events) that shares [from]'s
    frozen arrays and fingerprint, without copying or running the
    engine.  A non-resumable or wrong-prefix [from] silently
    falls back to a cold start (counted in the
    [engine.warm_resume_misses] metric), so callers can pass their
    cache slot unconditionally.

    [from] is honoured according to {!Runtime.warm}, read once per
    call: [Off] ignores it; [On] resumes; [Verify] resumes, re-runs the
    prefix cold (outside the hit/miss counters), and compares the two —
    both must agree on convergence, and converged states must be
    {!same_state}.  Each comparison bumps the [warm.verified] metric; a
    mismatch bumps [warm.divergences], is logged as an error, and
    returns the cold state.  Otherwise the warm state is returned.

    [max_events] (default [1000 + 200 * node_count]) bounds node
    activations.  When the budget runs out with work still queued, the
    run is retried with an escalating budget (×2 then ×4) up to
    [max_escalations] times before the state is declared {!Truncated};
    [max_escalations] defaults to 2 for the heuristic default budget
    and to 0 when [max_events] is given explicitly (an explicit cap is
    a caller decision — tests and budget experiments rely on it being
    exact).  A convergence watchdog arms once half the initial budget
    is spent and declares {!Diverged} as soon as the full simulation
    state repeats, cutting genuine oscillations short instead of
    burning escalated budgets.  [on_best_change node best] is a trace
    hook, called whenever a node adopts a new best route.  When
    {!Faultinject} is enabled in [Full] scope, chosen prefixes have
    their initial budget shrunk to 1.

    A run works in its domain's scratch arrays (policy rows, IGP memo,
    work queue), reused across runs and cleaned of what the run
    touched when it returns or raises, so a short warm resume
    allocates nothing slot- or node-sized beyond the state's own copy.
    Systhreads of one domain may simulate concurrently, and
    [on_best_change] may call back into the engine: a run that finds
    the domain's scratch in use works in a private one instead
    (counted in [engine.scratch_fallbacks]). *)

val resumable : Net.t -> state -> bool
(** Can a previous run of this prefix seed a warm restart on [net]?
    True when the state converged, was computed at the network's
    current {!Net.generation} (no structural or network-wide change
    since), and covers every node.  {!simulate} applies this check to
    its [from] argument; exposed so callers can predict whether a
    warm resume will hit. *)

val state_fingerprint : state -> int
(** Full-width hash of the routing content (best routes and RIB-Ins,
    no event-queue component): equal final states hash equally however
    they were reached.  The warm-vs-cold verification key.

    It is a positional, additive content hash: the wrapping sum of
    [best_hash n r] over every node [n] whose best route is [r], plus
    [slot_hash k r] over every RIB-In slot [k] holding [r], slots
    numbered node-major in session order; an empty entry contributes 0.
    It is memoised in the state.  A cold state computes it in full on
    first ask, bumping the [engine.state_fingerprints] metric.  A warm
    resume whose [from] was already fingerprinted gets its value
    eagerly when the run returns: the parent's sum, with the terms of
    the entries the run replaced swapped — a pointer comparison over
    the two states, no full hash and no metric bump.  A no-op resume
    inherits its parent's value. *)

val best_hash : int -> Rattr.t -> int
(** [best_hash n r]: the {!state_fingerprint} term of route [r] as node
    [n]'s best route. *)

val slot_hash : int -> Rattr.t -> int
(** [slot_hash k r]: the {!state_fingerprint} term of route [r] in
    RIB-In slot [k]. *)

val same_state : state -> state -> bool
(** Structural equality of routing content: same prefix, same per-node
    best routes and RIB-Ins ({!Rattr.same_advertisement} slot by
    slot). *)

val prefix : state -> Prefix.t

val generation : state -> int
(** The {!Net.generation} the state was computed at — the warm-resume
    gate, exposed so [Analysis.Audit] can cross-check a state against
    the live net before comparing offsets. *)

val outcome : state -> outcome

val pp_outcome : Format.formatter -> outcome -> unit

val converged : state -> bool
(** [converged st] is [outcome st = Converged]. *)

val resumed : state -> bool
(** The state was seeded from a [from] state (a warm resume) rather
    than computed from scratch. *)

val events : state -> int
(** Node activations performed. *)

val best : state -> int -> Rattr.t option
(** The node's selected route ([None]: no route). *)

val originating : state -> int list
(** The nodes that originated the prefix in this run, ascending — the
    [originators] the state was computed with (including any warm-resume
    origination delta).  Lets a cache rebuild its originator table from
    stored states. *)

val rib_in : state -> int -> (int * Rattr.t) list
(** [(session_index, route)] for every session currently delivering a
    route to the node, in session order. *)

val candidates : state -> Net.t -> int -> Rattr.t list
(** The decision-process input at a node: originated route (if the node
    originates the prefix) followed by the RIB-In routes. *)

val iter_candidates : state -> Net.t -> int -> (Rattr.t -> unit) -> unit
(** Visit the node's candidates in {!candidates} order without building
    a list — the allocation-free traversal the hot analysis paths use. *)

val fold_candidates :
  state -> Net.t -> int -> init:'a -> f:('a -> Rattr.t -> 'a) -> 'a
(** Fold over the node's candidates in {!candidates} order. *)

val best_full_path : Net.t -> state -> int -> int array option
(** The node's selected AS-level path including its own AS — directly
    comparable with an observed AS-path. *)

val selected_paths : Net.t -> state -> Asn.t -> int array list
(** All distinct full paths selected by the nodes of an AS (what the AS
    as a whole propagates — the model's answer to "which routes does
    this AS use for this prefix"). *)

val same_selected : Net.t -> state -> state -> Asn.t -> bool
(** [same_selected net a b asn]: every node of [asn] holds physically
    the same best route (or no route) in both states, so
    [selected_paths net a asn = selected_paths net b asn] without
    computing either.  True for every AS a warm resume of [a] into [b]
    left alone; [false] says nothing (equal routes may be distinct
    records). *)

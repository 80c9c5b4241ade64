(** The pre-flat-slab engine, frozen as a verification baseline.

    Behaviourally identical to the original {!Engine} before the flat
    route-slab rewrite, minus metrics and tracing.  The §SCALE bench
    and the QCheck equality test run this implementation against the
    flat engine on the same worlds: state fingerprints, outcomes and
    event counts must match exactly (warm and cold), and the flat
    engine must be strictly faster.  Not for production use — it exists
    so the comparison baseline can never drift along with the code
    under test. *)

open Bgp
open Simulator

type state

type outcome =
  | Converged
  | Truncated of { events : int; budget : int }
  | Diverged of { cycle_len : int }

val simulate :
  ?max_events:int ->
  ?max_escalations:int ->
  ?from:state ->
  ?touched:int list ->
  Net.t ->
  prefix:Prefix.t ->
  originators:int list ->
  state
(** Same contract as {!Engine.simulate} (cold start, or warm resume
    from a {!resumable} previous state of the same prefix). *)

val resumable : Net.t -> state -> bool

val state_fingerprint : state -> int
(** Same mixing scheme as {!Engine.state_fingerprint}: equal routing
    content gives equal fingerprints across the two engines. *)

val prefix : state -> Prefix.t

val outcome : state -> outcome

val converged : state -> bool

val events : state -> int

val best : state -> int -> Rattr.t option

val rib_in : state -> int -> (int * Rattr.t) list

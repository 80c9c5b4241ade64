(** The query evaluator: answers protocol requests against a frozen
    {!Snapshot}.

    Path and catchment queries only read the cached converged states.
    What-if queries re-converge every prefix {e warm} from the cached
    states ([Engine.simulate ?from]) after denying the link, then
    restore the network exactly; the whole mutate/simulate/revert
    sequence runs on the snapshot's executor thread.  The resumes
    follow [RD_WARM] ({!Simulator.Runtime.warm}): [off] re-converges
    cold, [verify] cross-checks every resume against a cold run.

    Metrics: [serve.queries], [serve.deadline_misses],
    [serve.latency_us] (histogram), [serve.whatif_resume_hits] (warm
    resumes actually used by what-if deltas, from the batch's
    {!Simulator.Pool.stats}). *)

val eval :
  ?jobs:int ->
  Snapshot.t ->
  Protocol.request ->
  (Protocol.payload, string) result
(** Evaluate one request.  [jobs] bounds the pool workers of a what-if
    re-convergence batch (default {!Simulator.Runtime.jobs}). *)

val eval_timed :
  ?jobs:int ->
  ?deadline_ms:int ->
  Snapshot.t ->
  Protocol.request ->
  Protocol.response
(** {!eval} wrapped with latency measurement, deadline accounting
    ([deadline_ms] defaults to {!Simulator.Runtime.deadline_ms}; [0]
    disables) and the serve metrics.  Exceptions become [Error]
    responses. *)

val run_batch :
  ?jobs:int ->
  ?deadline_ms:int ->
  Snapshot.t ->
  Protocol.request list ->
  Protocol.response list
(** Evaluate a batch, results in request order.  Read-only queries fan
    out over {!Simulator.Pool}; what-if queries run sequentially after
    the parallel phase (mutation must never overlap a pool batch). *)

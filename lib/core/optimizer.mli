(** Top-level optimizer facade.

    Wraps a method, a cost model, a tick budget and a seed into a single
    call.  Connected queries are optimized directly; a disconnected join
    graph is decomposed into components which are optimized separately (each
    with a share of the budget proportional to its squared size, matching the
    [t * N^2] time-limit shape) and then concatenated in increasing order of
    component result cardinality, i.e. cross products are postponed to the
    end and the cheapest results are crossed first — the paper's
    cross-product heuristic. *)

type result = {
  plan : Plan.t;
  cost : float;  (** cost of [plan] under the model *)
  lower_bound : float;
  ticks_used : int;
  checkpoints : (int * float) list;
      (** incumbent cost when each requested checkpoint tick was crossed
          (connected queries only; empty for disconnected queries) *)
  converged : bool;  (** stopped at the lower-bound stopping condition *)
  timed_out : bool;
      (** the run was cut short by its wall-clock deadline; [plan] is the
          incumbent at that moment *)
}

val optimize :
  ?config:Methods.config ->
  ?checkpoints:int list ->
  ?epsilon:float ->
  ?deadline:float ->
  ?clock:(unit -> float) ->
  ?calibration:Ljqo_cost.Plan_cost.calibration ->
  ?start:Plan.t ->
  method_:Methods.t ->
  model:Ljqo_cost.Cost_model.t ->
  ticks:int ->
  seed:int ->
  Ljqo_catalog.Query.t ->
  result
(** [ticks] must be positive: the iterative methods are defined relative to a
    time limit.  Raises [Invalid_argument] otherwise or on an empty query.

    A positive budget always returns a valid plan.  Heuristic bookkeeping
    and start-state generation charge ticks too, so a tiny budget can run
    out before the method records any plan; the result is then one random
    valid plan drawn from [seed], costed once, with [converged = false].

    Bound on [ticks_used]: a budget dies at the first charge that reaches
    it, so [ticks_used <= ticks - 1 + c + f] on a connected query.  [c] is
    the largest single charge the method made: at most [n] for a full plan
    evaluation or a random start, [n - 1] for a recost, the candidates
    scored for one augmentation step or KBZ tree edge (at most
    [max n e] for [n] relations and [e] join edges); and, for the portfolio,
    one round barrier's summed replicate work, at most
    [width * (r - 1 + max n e)] with [r = max 1 (ticks / (width * rounds))]
    ticks per replicate round.  [f] is [n] when the fallback plan was
    costed, 0 otherwise.  A disconnected query sums the bounds of its
    components' budget shares.

    [deadline] (seconds of wall-clock time, checked from the budget's charge
    path) bounds the run in real time on top of the deterministic tick
    budget.  A run whose deadline fires after it has found at least one plan
    returns that incumbent with [timed_out = true]; if the deadline fires
    before any plan exists, [Budget.Deadline_exceeded] escapes so the caller
    can record a structured timeout.

    [start] warm-starts the method with a known-good plan (see
    {!Methods.run}): it must be a valid plan for [query] —
    [Invalid_argument] otherwise, checked eagerly, so callers holding a plan
    of uncertain provenance (a cached plan mapped onto a different join
    graph) must check {!Plan.is_valid} first and fall back to a cold start.
    On a single-relation or disconnected query the warm start is ignored:
    the trivial plan is already optimal, and component decomposition
    re-derives its own sub-plans.

    [calibration] scales every effective edge selectivity the run costs
    (see {!Ljqo_cost.Plan_cost.calibration}); the run's {!Evaluator} holds
    it, so every method, heuristic and portfolio replicate searches under
    it, and [cost] is priced with it.  It is an input of this call only:
    concurrent calls with different calibrations do not interact. *)

val time_limit_ticks :
  ?ticks_per_unit:int -> t_factor:float -> query:Ljqo_catalog.Query.t -> unit -> int
(** Ticks for the paper's [t_factor * N^2] limit, with [N] the query's join
    count ([n_relations - 1]). *)

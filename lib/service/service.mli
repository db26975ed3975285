(** The optimizer as a long-lived serving layer.

    A service owns a {!Plan_cache} and a fixed optimization configuration
    (method, cost model, budget policy, base seed) and serves batches of
    queries through them:

    - an {e exact} fingerprint hit serves the cached plan directly — zero
      optimization ticks, cost re-estimated on the query at hand;
    - a {e coarse} hit re-optimizes, warm-started from the cached plan
      mapped through the canonical relabeling ({!Optimizer.optimize}'s
      [?start]); if the mapped plan is invalid on the new join graph the
      query falls back to a cold start;
    - a miss runs the configured method cold, and the result is admitted to
      the cache.

    Batch semantics (the determinism contract): requests are fingerprinted
    and deduplicated — identical exact keys within one batch are optimized
    once, the twins marked {!constructor-Deduped} — then all cache lookups
    are classified against the cache state {e as of batch start}, the
    remaining optimizations run in parallel over [Ljqo_stats.Parallel]
    domains, and cache updates (recency touches and admissions) are applied
    after the barrier, in request order.  Each query's optimizer seed is
    derived from the service seed and the query's own exact key, not its
    batch position.  Consequently the served results — and the cache state
    left behind — are bit-identical whatever the job count and however the
    batch is interleaved with other batches' worth of work, for a fixed
    request sequence.

    Queries with disconnected join graphs bypass the cache entirely (their
    optimal plans contain cross products, which the linear-plan validity
    check used for cache reuse rejects); they are optimized cold on every
    request. *)

type budget =
  | Time_limit of { t_factor : float; kappa : int option }
      (** the paper's [t_factor * N^2] ticks per query
          ({!Ljqo_core.Optimizer.time_limit_ticks}) *)
  | Fixed_ticks of int  (** the same tick budget for every query *)

type config = {
  method_ : Ljqo_core.Methods.t;
  methods_config : Ljqo_core.Methods.config;
      (** method tuning (II/SA parameters, portfolio width/rounds/legs)
          forwarded to every optimization this service runs *)
  model : Ljqo_cost.Cost_model.t;
  budget : budget;
  seed : int;
}

val default_config : config
(** IAI with default method tuning, memory model, [Time_limit 9.0],
    seed 42. *)

type source =
  | Exact_hit  (** served from the cache, no optimization *)
  | Warm_start  (** re-optimized, seeded with a similar query's plan *)
  | Cold  (** optimized from scratch *)
  | Deduped  (** shared the result of an identical in-flight request *)

type served = {
  index : int;  (** position in the request batch *)
  fingerprint : Fingerprint.t;
  plan : Ljqo_core.Plan.t;
  cost : float;  (** cost of [plan] on this query, under the service model *)
  ticks_used : int;  (** 0 for [Exact_hit] and [Deduped] *)
  source : source;
}

type t

val create :
  ?cache:Plan_cache.t ->
  ?cache_capacity:int ->
  config ->
  t
(** [cache] shares an existing cache (e.g. across services with different
    methods); otherwise a fresh one with [cache_capacity] entries (default
    1024) is created.  Raises [Invalid_argument] on a non-positive
    [cache_capacity] or a non-positive budget. *)

val cache : t -> Plan_cache.t

val serve_batch : ?jobs:int -> t -> Ljqo_catalog.Query.t array -> served array
(** Serve a batch; results in request order.  [jobs] defaults to
    [Ljqo_stats.Parallel.default_jobs ()] and is a pure speed knob (see the
    determinism contract above). *)

type direct = {
  d_fingerprint : Fingerprint.t;
  d_plan : Ljqo_core.Plan.t;
  d_cost : float;
  d_ticks_used : int;
  d_source : source;  (** [Exact_hit] or [Cold] — never warm-started *)
  d_timed_out : bool;
      (** cut by [deadline]; the plan is the salvaged incumbent and was
          {e not} committed to the cache *)
}

val serve_direct : ?deadline:float -> t -> Ljqo_catalog.Query.t -> direct
(** The concurrent server's per-request path: one query, immediate cache
    commit, no batch barrier.  To stay deterministic under interleaving it
    is strictly exact-hit-or-cold — a coarse (similar-query) hit does {e
    not} warm-start here, unlike {!serve_batch} — and a deadline-salvaged
    incumbent is served but never cached.  Under this policy the served
    (plan, cost, ticks) and any cache commit are a pure function of the
    query bytes and the service seed, independent of how concurrent
    requests interleave; and a fresh-cache serialized sequence of
    [serve_direct] calls leaves the same cache state and serves the same
    plans as one [serve_batch] over the same request sequence (where the
    batch path reports a duplicate as [Deduped], this path reports
    [Exact_hit]).

    [deadline] is a wall-clock allowance in seconds for the optimization run
    (measured from its start, as in {!Ljqo_core.Budget.create}); when it
    fires before any incumbent exists, [Ljqo_core.Budget.Deadline_exceeded]
    escapes (the server wraps this path in [Guard.run]). *)

val source_name : source -> string
(** ["exact-hit" | "warm-start" | "cold" | "deduped"]. *)

(** System-R-style dynamic programming over left-deep plans, on bitset keys.

    The exact algorithm the paper's introduction rules out for large
    queries: enumerate connected relation subsets in increasing size,
    keeping for each subset the cheapest left-deep plan that produces it
    (no cross products).  Worst-case time and space are [O(2^N)] — running
    the [dp] bench shows the blowup empirically, which is the paper's
    motivating observation — but subsets are represented as growable-width
    bitsets ({!Ljqo_catalog.Bitset}) and only *connected* subsets are ever
    materialized (each entry carries its valid-extension mask), so the
    near-tree graphs the benchmark generates stay far below the worst case
    and queries of 25 relations are practical where the list-based table
    stopped at ~22.

    Each subset-size round is expanded in parallel over OCaml domains
    (reusing the harness pool, {!Ljqo_stats.Parallel}): workers fill
    chunk-local candidate tables, which are then merged sequentially in
    input order with a survives-on-tie discipline, so the chosen plan is
    bit-identical whatever the job count ([LJQO_JOBS] is a pure speed
    knob).

    Optimal substructure requires set-determined intermediate sizes, so the
    DP prices plans with the *product* estimator ({!Ljqo_cost.Product_cost}).
    Under the library's default clamped estimator the returned plan is a
    (high-quality) heuristic; [optimize]'s result carries both costs so
    callers can see the difference. *)

exception Too_large of { n : int; max_relations : int }
(** The query has [n] relations, more than the [max_relations] the call
    allowed.  This is purely the table-memory cap: since bitset keys grew to
    arbitrary width there is no representation limit, so raising the cap is
    always legal (just exponentially expensive). *)

type result = {
  plan : Plan.t;
  product_cost : float;  (** the cost DP minimized (product estimator) *)
  clamped_cost : float;  (** the same plan under {!Ljqo_cost.Plan_cost} *)
  subsets_explored : int;
}

val optimize :
  ?max_relations:int ->
  ?jobs:int ->
  Ljqo_cost.Cost_model.t ->
  Ljqo_catalog.Query.t ->
  result
(** Connected queries only; [max_relations] defaults to 25 (beyond that
    the table may no longer fit in reasonable memory for dense graphs —
    which is the point; pass a larger cap explicitly to go further, e.g.
    for sparse chains).  [jobs] defaults to the configured
    {!Ljqo_stats.Parallel.default_jobs}; the result does not depend on it.
    Raises [Too_large] or [Invalid_argument]. *)

(** Costing of outer linear join trees (permutations) under a cost model.

    A permutation [perm] of the relation ids denotes the left-deep plan
    [((perm0 |><| perm1) |><| perm2) ...].  Intermediate sizes follow the
    standard product-of-selectivities estimate with *distinct-value
    clamping*: when the running intermediate result has fewer tuples than a
    join column's distinct count, the column cannot carry more values than
    tuples, so the edge's effective selectivity is rescaled accordingly
    (see {!Stepper}).  Clamping makes sizes — and costs — depend on join
    *order*, not merely on prefix sets, which is both how real estimators
    behave and what gives the plan space its rugged, order-sensitive
    character.

    Consequently an incremental recosting after a local change to positions
    [>= lo] must recompute the steps from [lo] on (earlier steps are
    untouched) until the running intermediate size meets the stored one
    again.

    Functions taking a [pos] array expect the inverse permutation
    ([pos.(perm.(i)) = i]). *)

type eval = {
  cards : float array;
      (** [cards.(i)]: intermediate cardinality after position [i];
          [cards.(0)] is the first relation's cardinality *)
  step_costs : float array;  (** [step_costs.(0) = 0.] *)
  total : float;
  est_steps : int;  (** elementary estimation steps performed (for budgets) *)
}

type calibration = { sel_factor : float }
(** A multiplicative per-edge selectivity correction fitted from executed
    plans (least squares of log(actual/estimated) cardinality against join
    depth; see [Ljqo_feedback.Calibration]).  [sel_factor = 1.0] is the
    identity.  The costing entry points ({!Stepper.make}, {!eval},
    {!total}) take it as an optional argument: each effective edge
    selectivity is multiplied by [sel_factor] before the cap at 1.  Without
    it no extra float operation happens, so uncalibrated costs are the
    plain estimator's, bit for bit. *)

val joins_before : Ljqo_catalog.Query.t -> perm:int array -> pos:int array -> int -> bool
(** Whether [perm.(i)] is joined to at least one earlier relation.  List-scan
    form for cold callers; {!Stepper.step} makes the same test in its
    neighbor scan. *)

val clamp_card : float -> float
(** Sanitize an estimated cardinality: NaN becomes 1, and the result is
    clamped into [[1, 1e120]].  Keeps every downstream cost finite. *)

val clamp_cost : float -> float
(** Sanitize a model-produced cost: NaN and [+inf] are pessimized to the
    [1e150] ceiling, negative values floored at 0.  This is the containment
    wall that makes the search methods total even under a faulty
    (e.g. fault-injecting) cost model. *)

(** The one join-step kernel.  Every costing path runs through it: {!eval},
    the incremental recost ([Ljqo_core.Search_state]), the neighbor kernel
    ([Ljqo_core.Neighborhood]) and the exhaustive search
    ([Ljqo_core.Exhaustive]).

    {b Position convention.}  Relation [j] counts as placed before position
    [k] exactly when [pos.(j) < k]; [max_int] marks a relation that is not
    placed at all.  For a permutation, [pos] is its inverse.  The prefix is
    never materialized, so a step costs the same at every graph width.

    {b One unboxed scan.}  A single pass over the joined relation's neighbor
    arrays yields the cross-product test and the product of the effective
    edge selectivities, in ascending neighbor order.  The effective
    selectivity of edge [(k, r)] under an intermediate of [outer_card]
    tuples holding [k] is the catalog selectivity [s] rescaled by clamping
    [k]'s distinct count to [outer_card]:
    [s * max D_k D_r / max (max (min D_k outer_card) 1) D_r], times the
    calibration's [sel_factor] if any, capped at 1.  Floats cross the call
    only through caller-owned arrays and the stepper's own flat
    {!Cost_model.join_input} record, which it refills for every priced step
    and from which it reads the model's cost, so a step allocates nothing.
    This is the library's one copy of the formula; the test oracle
    ([test/plan_cost_reference.ml]) computes it with
    [Float.min]/[Float.max] on boxed floats, and a step's results equal its
    own bit for bit. *)
module Stepper : sig
  type t

  val make : ?calibration:calibration -> Cost_model.t -> Ljqo_catalog.Query.t -> t
  (** O(1): holds the query's neighbor and statistics arrays, the cost
      model's [join_cost], the calibration every step applies and the
      [join_input] record every step refills.  That record makes a stepper
      single-threaded: each domain makes its own. *)

  val step :
    t ->
    price_cross:bool ->
    pos:int array ->
    cards:float array ->
    costs:float array ->
    k:int ->
    r:int ->
    bool
  (** Cost joining relation [r] at position [k >= 1] onto an intermediate
      of [cards.(k - 1)] tuples whose relations are those with
      [pos.(j) < k].  Returns whether [r] joins a placed relation.  When it
      does, or when [price_cross] is set, the step is priced:
      [costs.(k) <- cost] and [cards.(k) <- output_card], a cross product
      at the model's [is_cross] price.  A cross product with [price_cross]
      unset calls no cost model and writes nothing — the search paths
      reject such steps.  [pos] must cover every relation id
      ([Invalid_argument] otherwise, and for an out-of-range [r]). *)
end

val eval :
  ?calibration:calibration -> Cost_model.t -> Ljqo_catalog.Query.t -> int array -> eval
(** Cost a whole permutation through {!Stepper.step}, pricing cross
    products.  Any non-empty array of relation ids is accepted: a repeated
    id counts as placed from its first occurrence.  Raises
    [Invalid_argument] on an empty array or an id outside
    [[0, n_relations)] before costing anything. *)

val total :
  ?calibration:calibration -> Cost_model.t -> Ljqo_catalog.Query.t -> int array -> float
(** [(eval ?calibration model q perm).total]. *)

val qerror : est:float -> act:float -> float
(** The estimation-error factor [max (est/act, act/est)] with both sides
    floored at 1 tuple (so [act = 0] stays finite).  Always [>= 1];
    symmetric under swapping [est] and [act]. *)

val reference_final_cardinality : Ljqo_catalog.Query.t -> float
(** The unclamped full-join size (product of all cardinalities and all edge
    selectivities) — an order-independent reference used to compare
    component result sizes; actual plan-dependent finals may be smaller. *)

val lower_bound : Cost_model.t -> Ljqo_catalog.Query.t -> float
(** Admissible lower bound on any valid plan's cost: every base relation is
    scanned at least once. *)

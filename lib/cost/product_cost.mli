(** The classical order-independent size estimator.

    Intermediate cardinality of a relation set = product of the relations'
    cardinalities times the product of the selectivities of all join edges
    inside the set — no distinct-value clamping.  Under this estimator the
    size (and hence the per-set best cost) depends only on the *set*, which
    is exactly the optimal-substructure property System R's dynamic
    programming needs ({!Ljqo_core.Dp} builds on this module).

    The clamped estimator ({!Plan_cost}) is the library's default; this one
    exists as the DP substrate and as the comparison point for measuring
    what clamping changes. *)

val step_cost :
  Cost_model.t ->
  Ljqo_catalog.Query.t ->
  outer_card:float ->
  members:int list ->
  int ->
  float * float
(** [(cost, raw_output_card)] of joining relation [r] next, under the given
    cost model; [outer_card] is the raw running product. *)

val step_cost_mask :
  Cost_model.t ->
  Ljqo_catalog.Query.t ->
  outer_card:float ->
  mask:Ljqo_catalog.Bitset.t ->
  int ->
  float * float
(** [step_cost] with the member set as a bitset — the form the bitset DP's
    expansion loop uses.  Bit-identical to the list form. *)

val eval : Cost_model.t -> Ljqo_catalog.Query.t -> int array -> Plan_cost.eval
(** Permutation costing under the product estimator (same result shape as
    {!Plan_cost.eval}). *)

val total : Cost_model.t -> Ljqo_catalog.Query.t -> int array -> float

(** Bushy join trees — exploring the paper's open problem.

    The paper restricts its search to outer linear join trees "based on the
    assumption that a significant fraction of the join trees with low
    processing cost is to be found in the space of outer linear join trees.
    The validation of this assumption is an open problem."  This module
    makes the assumption testable: general binary join trees, their costing
    under the same models and size estimation, a random generator, a
    transformation move set (commute / rotate / subtree exchange), and an
    iterative-improvement optimizer over the bushy space.  The [linear_vs_
    bushy] bench compares the two spaces' optima.

    Costing approximation: the cost models price (outer, inner) joins where
    the inner carries a distinct count; for an intermediate inner operand we
    use its estimated cardinality capped by the inner-side endpoint's
    distinct count of the cheapest connecting edge.  Selectivities are
    clamped on both operands (each side's distinct values cannot exceed its
    tuple count), generalizing the linear estimator. *)

type t = Leaf of int | Join of t * t

val relations : t -> int list
(** Leaves in left-to-right order. *)

val n_leaves : t -> int

val is_linear : t -> bool
(** Every join's right child is a leaf. *)

val is_valid : Ljqo_catalog.Query.t -> t -> bool
(** Contains every relation exactly once and no join is a cross product. *)

type eval = { cost : float; card : float }

val eval : Ljqo_cost.Cost_model.t -> Ljqo_catalog.Query.t -> t -> eval
(** Total cost and result-size estimate. *)

val cost : Ljqo_cost.Cost_model.t -> Ljqo_catalog.Query.t -> t -> float

val random : Ljqo_stats.Rng.t -> Ljqo_catalog.Query.t -> t
(** A random valid bushy tree: repeatedly join two joinable fragments.
    Raises [Invalid_argument] on a disconnected query. *)

val random_move : Ljqo_stats.Rng.t -> t -> t
(** One random transformation: commute a join, rotate an association, or
    exchange two subtrees.  The result may be invalid (cross product);
    callers filter with [is_valid]. *)

val optimize :
  ?restarts:int ->
  Ljqo_cost.Cost_model.t ->
  Ljqo_catalog.Query.t ->
  seed:int ->
  t * float
(** Multi-start bushy II (default 10 restarts); the bushy baseline used by
    the linear-vs-bushy experiment.  Each restart improves a {!random} tree
    drawn from [Rng.create seed] until [8 * n] consecutive valid samples
    fail to improve it. *)

val to_string : Ljqo_catalog.Query.t -> t -> string
(** E.g. [((A B) (C D))]. *)

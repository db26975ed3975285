(** The KBZ heuristic (Krishnamurthy, Boral & Zaniolo [KBZ86]), Section 4.2.

    A three-level hierarchy:

    - Algorithm {b R} takes a join graph that is a *rooted tree* and returns
      the optimal join order among those respecting the tree's partial order
      (root first, every node before its descendants), under an ASI cost
      function.  It is the classic rank-merge construction: every non-root
      node [v] gets [T_v = J(parent v, v) * N_v] and per-outer-tuple cost
      [C_v = g(v)]; chains are merged in nondecreasing rank order,
      [rank s = (T s - 1) / C s], and parent/child rank inversions are
      collapsed into compound sequences with [T(s1 s2) = T s1 * T s2],
      [C(s1 s2) = C s1 + T s1 * C s2].

    - Algorithm {b T} runs R for every choice of root and keeps the best
      ordering under the real cost model.

    - Algorithm {b G} first extracts a spanning tree from a (possibly
      cyclic) join graph, growing it greedily under one of three edge
      weightings (the paper's criteria 3-5; Table 2 finds plain join
      selectivity best), then applies T.

    The hash join does not have an ASI-form cost function (the paper notes
    this); following the paper's criterion-5 rank we use the surrogate
    [g(v) = 0.5 * N_v / D_v], the expected bucket-chain work per probing
    tuple. *)

type weighting = W_selectivity | W_intermediate_size | W_rank

val all_weightings : weighting list
val weighting_index : weighting -> int
(** 3, 4 or 5, the paper's criterion numbers. *)

val weighting_of_index : int -> weighting

val default_weighting : weighting
(** [W_selectivity], the Table 2 winner. *)

val spanning_tree : ?charge:(int -> unit) -> Ljqo_catalog.Query.t -> weighting -> Ljqo_catalog.Join_graph.t
(** Algorithm G's tree: grown from the smallest relation, always adding the
    frontier edge of minimum weight.  Keeps original selectivities.  Raises
    [Invalid_argument] on a disconnected query. *)

val optimal_for_root :
  ?charge:(int -> unit) ->
  Ljqo_catalog.Query.t ->
  tree:Ljqo_catalog.Join_graph.t ->
  root:int ->
  Plan.t
(** Algorithm R.  [tree] must be a tree containing all relations. *)

val asi_cost :
  Ljqo_catalog.Query.t -> tree:Ljqo_catalog.Join_graph.t -> Plan.t -> float
(** The ASI objective R minimizes, exposed for testing R's optimality:
    [sum_i (prod_{k<i} T_k) * C_i] over the non-root relations in plan
    order, with parents taken from [tree] rooted at the plan's first
    relation. *)

val make_source :
  ?weighting:weighting -> Evaluator.t -> unit -> Plan.t option
(** Start-state source for the combined methods: lazily yields algorithm R's
    ordering for each root (roots in increasing-cardinality order, i.e.
    algorithm T unrolled), charging the heuristic's work. *)

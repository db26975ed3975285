(** Exact optimization of small queries by branch-and-bound.

    The paper motivates its heuristics by the infeasibility of System R's
    exact enumeration beyond ~10 joins; this module provides that exact
    baseline for the sizes where it is feasible, which lets the experiment
    harness and the tests measure true optimality gaps.

    Classic System-R dynamic programming over relation *sets* assumes the
    best cost of a set is independent of the order inside it.  Under
    distinct-value clamping that assumption fails — a prefix's cost and its
    output cardinality both depend on the order — so this module enumerates
    the valid permutation space directly, depth-first, pruning a branch as
    soon as its partial cost reaches the incumbent (costs are monotone:
    every join step adds nonnegative cost).

    Worst-case time is factorial; in practice dense pruning handles 10-14
    relations in well under a second.  [optimize] refuses queries of more
    than 16 relations. *)

exception Too_large of { n : int; max_relations : int }
(** The query has [n] relations, more than [max_relations] (16). *)

type result = {
  plan : Plan.t;
  cost : float;
  nodes_expanded : int;  (** search-tree nodes visited *)
  pruned : int;  (** branches cut by the bound *)
}

val optimize :
  Ljqo_cost.Cost_model.t ->
  Ljqo_catalog.Query.t ->
  result
(** Exact optimum over valid permutations (connected queries only; raises
    [Invalid_argument] on a disconnected join graph, [Too_large] past 16
    relations). *)

val count_valid_plans : ?limit:int -> Ljqo_catalog.Query.t -> int
(** Number of valid permutations, counting up to [limit] (default
    10_000_000) and returning [limit] if reached — the size of the search
    space the paper's methods sample. *)

(** General combinatorial baselines from the predecessor study [SG88].

    The 1989 paper builds on Swami & Gupta's SIGMOD 1988 comparison of
    *general* combinatorial optimization techniques, of which iterative
    improvement and simulated annealing "performed best".  This module
    implements the techniques those two beat, so the repository covers the
    cited study's scope and the claim is checkable ([bench: sg88]):

    - {b random sampling}: cost independent random valid states, keep the
      best — the quality floor any search must clear;
    - {b perturbation walk}: a random walk through the move graph that
      accepts every valid move and remembers the best state visited —
      measures how much II's accept-only-improvements rule actually buys.
      It restarts from a fresh random state every [8 * n^2] steps to avoid
      drifting forever in a bad region;
    - {b steepest-descent II}: like II but each step samples a batch of 8
      neighbours and takes the best improving one — a classic variant that
      trades more evaluations per step for better steps.  A descent ends
      after [n] batches without an improving neighbour, then restarts from
      a random state. *)

type t = Random_sampling | Perturbation_walk | Steepest_descent

val all : t list

val name : t -> string

val run : t -> Evaluator.t -> Ljqo_stats.Rng.t -> unit
(** Uniform driver, like {!Methods.run}: swallows the stop exceptions. *)

(** Sampling distributions used by the synthetic benchmark generator.

    The paper (Section 5) specifies query features as mixtures of ranges:
    e.g. relation cardinalities are drawn 20% from [10,100), 60% from
    [100,1000), 20% from [1000,10000).  This module provides the mixture
    machinery plus the concrete primitive distributions. *)

type 'a t
(** A distribution producing values of type ['a]. *)

val sample : 'a t -> Rng.t -> 'a

val constant : 'a -> 'a t

val int_range : int -> int -> int t
(** [int_range lo hi] is uniform on [lo, hi-1] (half-open, as the paper's
    range notation [lo, hi)). *)

val float_range : float -> float -> float t
(** Uniform on [lo, hi). *)

val mixture : (float * 'a t) list -> 'a t
(** [mixture [(w1, d1); ...]] samples [di] with probability [wi / sum w]. *)

val of_list : 'a list -> 'a t
(** Uniform over the elements of a non-empty list (with repetitions giving
    weight, as in the paper's selectivity list). *)

val map : ('a -> 'b) -> 'a t -> 'b t

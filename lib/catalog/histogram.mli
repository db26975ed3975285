(** Equi-width histograms for selection-selectivity estimation.

    The paper draws selection selectivities from a fixed list (with
    System R's classic 1/3 ≈ 0.34 dominating); a real optimizer derives
    them from column statistics.  This module provides the standard
    equi-width histogram: build one from per-bucket counts, then estimate
    the selectivity of comparison predicates with intra-bucket linear
    interpolation.  Used by the SQL front end when a column declares
    a histogram, and directly testable against synthetic data. *)

type t

val of_counts : lo:float -> hi:float -> counts:int array -> t
(** Explicit construction: [counts.(i)] values in bucket [i] of the
    equi-width partition of [lo, hi).  Requires [lo < hi] and a non-empty,
    nonnegative [counts]. *)

val total : t -> int
(** Number of values represented. *)

val bins : t -> int

val range : t -> float * float

val selectivity_lt : t -> float -> float
(** Estimated fraction of values strictly below the constant, interpolating
    inside the bucket containing it; 0 below the range, 1 above. *)

val selectivity_ge : t -> float -> float
(** [1 - selectivity_lt]. *)

val selectivity_eq : t -> distinct:int -> float -> float
(** Fraction equal to the constant: the containing bucket's mass divided by
    the expected distinct values per bucket ([distinct] spread uniformly);
    0 outside the range. *)

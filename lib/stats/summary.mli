(** Summary statistics over float samples.

    Used both for validating generator distributions in tests and for the
    experiment harness.  All functions are total on non-empty inputs and
    raise [Invalid_argument] on empty ones. *)

val mean : float array -> float

val variance : float array -> float
(** Sample (n-1) variance; 0 for singleton input. *)

val median : float array -> float
(** Does not mutate its argument. *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0,100], linear interpolation between order
    statistics.  Does not mutate its argument. *)

val min_max : float array -> float * float

val geometric_mean : float array -> float
(** Requires all-positive samples. *)

(** Deterministic query featurization for the learned router.

    A query maps to a fixed-width vector of floats derived only from the
    catalog — relation count, {!Ljqo_catalog.Graph_metrics} shape metrics,
    log-domain cardinality/distinct/selectivity summary statistics, and a
    few bits of a coarse structural hash (the same spirit as the plan
    cache's coarse fingerprint key: queries that would warm-start each other
    tend to land in the same coarse bucket).  No wall clock, no RNG: equal
    queries always produce bit-equal vectors, which is what makes model
    training and routing reproducible. *)

val dim : int
(** Width of every feature vector. *)

val names : string array
(** [dim] feature names, for diagnostics and the model-file spec. *)

val of_query : Ljqo_catalog.Query.t -> float array
(** The feature vector; every entry is finite.  Raises [Invalid_argument]
    on an empty query (no relations). *)

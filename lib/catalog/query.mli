(** A join query: relations plus the join graph over them.

    This is the unit of work the optimizer receives.  Derived statistics used
    by heuristics and cost models ([N_k], [D_k], degree, pairwise selectivity
    products) are exposed here; the arrays backing them are precomputed so
    that optimizer inner loops do not re-derive them. *)

type t

val make : relations:Relation.t array -> graph:Join_graph.t -> t
(** Relations must be indexed [0 .. n-1] in array order ([relations.(i).id =
    i]) and the graph must have the same vertex count. *)

val n_relations : t -> int

val n_joins : t -> int
(** Number of join-graph edges; the paper's [N] is [n_relations - 1] for the
    connected spanning core, but reported per-query as edge count where
    needed.  For the time-limit formulas we use [n_relations - 1]. *)

val relation : t -> int -> Relation.t

val graph : t -> Join_graph.t

val cardinality : t -> int -> float
(** [N_k], after selections. *)

val distinct_values : t -> int -> float
(** [D_k].  Always at least 1 (see {!Relation.distinct_values}). *)

val cardinalities : t -> float array
(** Every [N_k] at once, indexed by relation id.  The backing store itself,
    not a copy: callers must not mutate it.  Hot loops read it directly,
    so they pay no accessor call and box no float. *)

val distinct_counts : t -> float array
(** Every [D_k] at once; same contract as {!cardinalities}. *)

val degree : t -> int -> int
(** Degree in the join graph. *)

val is_connected : t -> bool

val total_base_tuples : t -> float
(** Sum of effective cardinalities; used by lower bounds. *)

val induced : t -> int list -> t * int array
(** [induced q rels] is the sub-query over the given relation ids (statistics
    preserved, relations renumbered [0 .. k-1] in the order given) together
    with the map from new ids back to the original ids.  Used to optimize the
    components of a disconnected query separately. *)

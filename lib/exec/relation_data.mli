(** Synthetic base-relation data matching catalog statistics.

    Each join predicate [(u, v)] gets its own column pair: relation [u]
    carries a column for the edge with values uniform on [0, D_u - 1], and
    [v] likewise on [0, D_v - 1].  Domains are nested (smaller domains are
    prefixes of larger ones), realizing the containment assumption under
    which [J = 1 / max (D_u, D_v)] is the exact expected selectivity of the
    predicate, and distinct predicates are statistically independent — the
    independence the size estimator assumes.

    Tuples are identified by index; [column] retrieves a tuple's value for a
    given edge. *)

type t

val of_columns : relation:int -> card:int -> columns:(int * int array) list -> t
(** Build from explicit per-edge columns (each of length [card >= 1]);
    used by {!Pipeline} after executing selections for real.  Raises
    [Invalid_argument] on ragged columns or [card < 1]. *)

val generate_all : Ljqo_catalog.Query.t -> rng:Ljqo_stats.Rng.t -> t array
(** Indexed by relation id. *)

val relation : t -> int

val cardinality : t -> int

val column : t -> other:int -> int array
(** [column data ~other] is the column of values for the edge joining this
    relation with relation [other].  Raises [Not_found] if no such edge. *)

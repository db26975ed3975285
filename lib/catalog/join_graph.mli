(** Join graphs.

    Vertices are relation ids [0 .. n-1]; an undirected edge [(u, v)] carries
    the join selectivity [J_uv] of the join predicate linking the two
    relations.  At most one edge per pair (multiple predicates between the
    same pair are folded into one edge by multiplying selectivities).

    The graph is immutable after [make]; adjacency is precomputed so that the
    optimizer's hot loops ([neighbors], [are_joined], [selectivity]) are
    cheap. *)

type edge = { u : int; v : int; selectivity : float }

type t

val make : n:int -> edge list -> t
(** [make ~n edges] builds a graph on [n] vertices.  Edge endpoints must be
    distinct and in range; selectivities in [0, 1] (0 = always-false predicate).  Duplicate pairs are
    merged by multiplying their selectivities. *)

val n : t -> int
(** Number of vertices (relations). *)

val n_edges : t -> int

val edges : t -> edge list
(** Each undirected edge reported once, with [u < v], in ascending order. *)

val neighbors : t -> int -> (int * float) list
(** [(other, selectivity)] pairs, ascending by vertex.  Returns the cached
    list — no allocation per call. *)

val neighbor_ids : t -> int -> int array
(** Neighbor vertex ids, ascending — the cached array itself, not a copy.
    Callers must not mutate it.  This is the zero-allocation variant the
    optimizer's inner loops use. *)

val neighbor_sels : t -> int -> float array
(** Selectivities parallel to {!neighbor_ids} (same order, same length);
    also a cached array that must not be mutated. *)

val adjacency : t -> int array array
(** The whole neighbor-id table at once — [adjacency g].(v) is
    [neighbor_ids g v].  The backing store itself, not a copy: callers must
    not mutate it.  Fetching it once outside a loop saves the per-vertex
    accessor call in the tightest kernels. *)

val selectivity_table : t -> float array array
(** The whole selectivity table at once — [selectivity_table g].(v) is
    [neighbor_sels g v], parallel to {!adjacency}.  The backing store
    itself, not a copy: callers must not mutate it. *)

val neighbor_mask : t -> int -> Bitset.t
(** The set of vertices adjacent to [v], as a bitset (any graph size).
    O(1): precomputed at [make]. *)

val degree : t -> int -> int

val are_joined : t -> int -> int -> bool

val selectivity : t -> int -> int -> float option
(** Selectivity of the edge between two vertices, if present. *)

val selectivity_exn : t -> int -> int -> float

val components : t -> int list list
(** Connected components, each sorted ascending; components ordered by their
    smallest vertex. *)

val is_connected : t -> bool
(** True also for the 1-vertex graph; false for [n = 0]. *)

val is_tree : t -> bool
(** Connected with exactly [n - 1] edges. *)

val induced_connected : t -> int list -> bool
(** [induced_connected g vs] tells whether the subgraph induced by [vs] is
    connected (true for singleton, false for empty). *)

val induced_connected_mask : t -> Bitset.t -> bool
(** Same predicate with the set given as a bitset — a few word operations
    per BFS round instead of array-marking, for the hot paths.  All members
    must be [< n g]. *)

val spanning_tree : t -> weight:(edge -> float) -> t
(** Minimum spanning tree (forest on a disconnected graph) by Prim's
    algorithm under the given edge weight.  Keeps the original
    selectivities. *)

val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a

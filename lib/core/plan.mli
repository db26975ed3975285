(** Outer linear join trees, represented as permutations of relation ids.

    The permutation [perm] denotes the left-deep plan whose outer operand
    grows left to right; [perm.(0)] is the leftmost (first) relation and every
    [perm.(i)], [i >= 1], is the inner base relation of join step [i].  A
    permutation is *valid* for a connected query when every prefix induces a
    connected subgraph of the join graph, i.e. no join step is a cross
    product. *)

type t = int array

val is_permutation : t -> bool
(** Each of [0 .. n-1] appears exactly once. *)

val is_valid : Ljqo_catalog.Query.t -> t -> bool
(** [is_permutation] and every element past the first joins with at least one
    earlier element.  A single allocation-free pass at every graph width:
    the placed-prefix mask doubles as the duplicate detector, tracked in two
    local ints up to {!Ljqo_catalog.Bitset.inline_size} relations and in one
    preallocated scratch word array beyond. *)

val inverse : t -> int array
(** [pos] array with [pos.(perm.(i)) = i]. *)

val concat : t list -> t
(** Concatenate component permutations (already expressed in the full query's
    relation ids) into one plan; later components are joined by cross
    products. *)

val equal : t -> t -> bool

val to_string : t -> string
(** E.g. ["(3 0 2 1)"], the paper's permutation notation. *)

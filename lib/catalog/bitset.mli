(** Growable-width bitsets over relation ids.

    A relation set is two inline 63-bit words covering ids [0 .. 125] — the
    whole regime of the source paper ([N <= 100] joins) with headroom — plus
    an immutable packed word array ([tail]) for ids beyond, so there is no
    width cap: a 200-relation chain keys the same kernels as a 10-relation
    one.  Values are immutable; sets that fit the inline words ([n <=
    inline_size]) allocate no tail at all, keeping set algebra a handful of
    machine instructions on the paper-scale hot paths (prefix-connectivity
    checks, move validity, neighbor enumeration, DP table keys).

    Canonical form: [tail] never carries trailing zero words (and the empty
    tail is a single shared array), so structural equality, polymorphic
    hashing, and {!compare} agree with set equality no matter how a value was
    built — DP keys its hashtable on this.

    Element order everywhere is ascending id, matching the sorted adjacency
    the rest of the catalog exposes, so replacing a list traversal by a
    bitset iteration preserves float evaluation order bit-for-bit. *)

type t = private { w0 : int; w1 : int; tail : int array }
(** Bits [0 .. 62] live in [w0], bits [63 .. 125] in [w1], and bit [i] of
    [tail.(j)] is id [126 + 63*j + i].  The representation is exposed
    read-only so that hot loops can test membership without a function call;
    construct values only through this interface and never mutate a [tail]. *)

val word_bits : int
(** [63]: ids per word. *)

val inline_size : int
(** [126]: the smallest id that needs the tail.  Sets whose elements are all
    below this allocate no tail, and the search kernels track such prefixes
    as two local ints; wider graphs use a small scratch word array instead
    (see {!words_needed} / {!intersects_words}). *)

val words_needed : int -> int
(** [words_needed n] is the number of 63-bit words covering ids
    [0 .. n - 1] — the scratch-array length a wide hot loop preallocates.
    [0] for [n <= 0]. *)

val empty : t

val full : int -> t
(** [full n] is [{0, ..., n-1}] for any [n >= 0].  Raises
    [Invalid_argument] on negative [n]. *)

val singleton : int -> t
(** Raises [Invalid_argument] on a negative id (as do [add], [remove] and
    [mem]); any non-negative id is representable. *)

val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int

val word : t -> int -> int
(** [word s k] is the set's [k]-th 63-bit word ([0] beyond its width) —
    [word s 0 = s.w0], [word s 1 = s.w1], the rest from the tail. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val intersects : t -> t -> bool
(** [intersects a b] iff [inter a b] is non-empty — the O(words) form of
    "does relation [r]'s neighborhood meet the placed prefix". *)

val intersects_words : t -> int array -> bool
(** [intersects_words s arr]: does [s] meet the set whose [k]-th 63-bit word
    is [arr.(k)]?  The wide hot loops keep their running prefix as such a
    scratch array and test neighbor masks against it without boxing a [t];
    words beyond either side's width count as zero. *)

val subset : t -> t -> bool
(** [subset a b] iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Deterministic total order: lexicographic from the highest word down
    (equivalently: compare the largest differing element).  On inline sets
    this is the historic [(w1, w0)] machine-word order, so DP frontier
    sorts — and every fixed-seed output at [n <= 126] — are unchanged by
    the growable width. *)

val hash : t -> int
(** Non-negative; every word (inline and tail) is mixed with the multiplier
    and folded high-to-low, so subsets of high ids spread across the low
    bits a power-of-two hashtable indexes with. *)

val min_elt : t -> int
(** Smallest element.  Raises [Invalid_argument] on the empty set. *)

val iter : (int -> unit) -> t -> unit
(** Ascending id order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending id order. *)

val to_list : t -> int list
(** Ascending. *)

val of_list : int list -> t

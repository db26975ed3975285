(** Deterministic, splittable pseudo-random number generator.

    All randomized components of the optimizer and the benchmark generator
    draw from this generator so that every experiment is reproducible from a
    seed.  The core is splitmix64 (Steele, Lea & Flood 2014), which has a
    64-bit state, passes BigCrush, and supports cheap splitting: deriving an
    independent stream from a parent stream.  Splitting is what lets us give
    each query, each optimizer run, and each replicate its own stream without
    the streams interfering.

    Draws do not allocate: the 64-bit state is kept unboxed in an 8-byte
    buffer, and [int] rejects in a loop rather than a closure, so [int],
    [int_in], [bool], [bernoulli], [choose] and [shuffle_in_place] leave
    [Gc.minor_words] unchanged.  [bits64] and [float] return a boxed
    number, which the compiler unboxes where it inlines them (release
    builds); only [create], [copy], [split] and [split_at] make a new
    generator. *)

type t
(** A mutable generator. *)

val create : int -> t
(** [create seed] makes a generator from an integer seed.  Equal seeds yield
    identical streams. *)

val copy : t -> t
(** [copy t] is a generator with the same state as [t]; advancing one does not
    affect the other. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the rest of [t]'s stream. *)

val split_at : t -> int -> t
(** [split_at t i] derives the [i]-th child stream of [t] without advancing
    [t].  Used to give query [i] of a workload its own stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1].  Requires [n > 0]. *)

val int_array : t -> len:int -> int -> int array
(** [int_array t ~len n] is [len] successive draws of [int t n], in order,
    and leaves [t] where those draws would.  It allocates only the array,
    and keeps the generator's state in a local across the draws, which a
    loop of [int] calls cannot. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [lo, hi] inclusive.  Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

(** Log-bucketed histograms over non-negative integers.

    HdrHistogram-style layout: values 0..15 get exact unit buckets; above
    that, each power-of-two range is split into 16 linear sub-buckets, so
    bucket boundaries have at most ~6% relative width whatever the value
    scale (nanoseconds, ticks, cost deltas).

    The bucket index of a value is a pure function of the value, so a
    histogram is a deterministic function of the multiset of recorded
    values: {!merge} (cell-wise addition) is associative and commutative,
    and two histograms recording the same values in any order on any
    machine are structurally equal ([=]).

    Values are immutable; {!record} is O(buckets) because it copies.  The
    hot concurrent path lives in {!Obs}, which accumulates into atomic cell
    arrays and converts to this type only at snapshot time
    ({!of_cells}). *)

type t

val empty : t

val is_empty : t -> bool

val record : t -> int -> t
(** Add one value (negatives clamp to 0). *)

val record_f : t -> float -> t
(** Add one float measurement: NaN and negatives record as 0, overlarge
    values saturate into the last bucket. *)

val merge : t -> t -> t
(** Cell-wise sum — associative, commutative, [empty] is the unit. *)

val count : t -> int

val sum : t -> int

val mean : t -> float

val min_value : t -> int
(** Lower bound of the smallest non-empty bucket (0 when empty). *)

val max_value : t -> int
(** Lower bound of the largest non-empty bucket (0 when empty). *)

val quantile : t -> float -> int
(** [quantile h q] is the lower bound of the bucket holding the
    [ceil (q * count)]-th smallest recorded value; deterministic, no
    interpolation. *)

val nonzero : t -> (int * int) list
(** [(bucket index, count)] for every non-empty bucket, ascending. *)

(** {1 Bucket geometry} *)

val n_buckets : int

val index : int -> int
(** Bucket index of a value (negatives clamp to 0). *)

val bucket_lo : int -> int
(** Inclusive lower bound of a bucket; [bucket_lo (i + 1)] is bucket [i]'s
    exclusive upper bound. *)

val of_cells : counts:int array -> count:int -> sum:int -> t
(** Build from a dense cell array of length {!n_buckets} (copied); used by
    the snapshot path.  Raises [Invalid_argument] on a wrong length. *)

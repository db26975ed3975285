(** The learned cost predictor: one ridge regression per route.

    For each candidate route (II, SA, 2PO, portfolio) the model fits a
    linear predictor of the log10 scaled cost ({!Dataset.target}) over
    [\[1; features; log2 ticks\]].  Ridge regression over this small, fixed
    design is chosen over a contextual bandit deliberately (rationale in
    DESIGN.md): training is a closed-form deterministic solve — fixed
    iteration order, no exploration randomness, no wall clock — so the same
    samples always yield the bit-identical model, which the online-refresh
    determinism guarantees rest on.

    The serialized form is a versioned text file with the checkpoint-v2
    discipline: floats as IEEE-754 bit-pattern hex, every line carrying an
    MD5 checksum of its payload, a declared line count, and a required
    trailing newline — so truncation (even of the final newline alone) and
    any byte mutation are rejected loudly rather than half-loaded. *)

type t

val routes : Ljqo_core.Methods.t list
(** The candidate routes, in fixed training/serialization order:
    [II; SA; Two_phase; Portfolio]. *)

val lambda_default : float
(** 1.0 — the ridge regularizer used when [?lambda] is omitted. *)

val train : ?lambda:float -> Dataset.sample list -> t option
(** Fit one regression per route from the usable samples (unusable ones are
    dropped; samples for routes outside {!routes} are ignored).  Feature
    ranges are recorded over every usable sample for {!in_range}.  [None]
    when no route has a single usable sample.  Deterministic: the result
    depends only on the sample list (order included, though the normal
    equations make it order-insensitive in exact arithmetic). *)

val predict : t -> route:string -> features:float array -> ticks:int -> float option
(** Predicted log10 scaled cost for running [route] at [ticks]; [None] when
    the model has no weights for [route].  Raises [Invalid_argument] if
    [features] has the wrong width. *)

val in_range : t -> float array -> bool
(** Whether a feature vector lies inside the training ranges, with slack
    [max 1.0 (0.25 * span)] per feature — the router's out-of-distribution
    guard. *)

val equal : t -> t -> bool
(** Structural equality on the exact float bits — the test suite's
    bit-identical-training check. *)

(** {1 Persistence} *)

val magic : string
(** First line of every model file: ["# ljqo-learn-model v1"]. *)

val save : path:string -> t -> unit

val to_string : t -> string
(** The exact file contents {!save} writes. *)

val load : path:string -> (t, string) result
(** Strict load; [Error] names the offending line.  Guaranteed:
    [load (save m) = Ok m'] with [equal m m'], and any proper prefix or
    single-byte mutation of the file is rejected. *)

val of_string : string -> (t, string) result

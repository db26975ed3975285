(** The learned cost predictor: one ridge regression per route.

    For each candidate route (II, SA, 2PO, portfolio) the model fits a
    linear predictor of the log10 scaled cost ({!Dataset.target}) over
    [\[1; features; log2 ticks\]].  Ridge regression over this small, fixed
    design is chosen over a contextual bandit deliberately (rationale in
    DESIGN.md): training is a closed-form deterministic solve — fixed
    iteration order, no exploration randomness, no wall clock — so the same
    samples always yield the bit-identical model, which the online-refresh
    determinism guarantees rest on.

    A model file is a {!Ljqo_obs.Sealed} document (seal, tokens and frame
    are specified there) with this line schema:

    {v
    # ljqo-learn-model v1
    H <feature_dim> <lambda> <n>
    R <min> <max> ... (one pair per feature)
    W <route> <k> <coef>^k (n lines, one per route, k = feature_dim + 2)
    v}

    [feature_dim] must equal {!Features.dim}, [n] is at least 1 and must
    match the [W] lines that follow, routes are {!Ljqo_core.Methods} names
    and none repeats. *)

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

val save : path:string -> t -> unit

val to_string : t -> string
(** The exact file contents {!save} writes. *)

val load : path:string -> (t, string) result
(** Strict load; [Error] names the path, and the offending line.
    [load (save m) = Ok m'] with [equal m m'], no proper prefix of the file
    loads, and a single-byte mutation is refused or loads a model equal to
    [m]. *)

val of_string : string -> (t, string) result

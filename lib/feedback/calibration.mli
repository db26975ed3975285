(** Per-catalog least-squares calibration of the selectivity model.

    The estimator's error compounds once per applied join predicate, so a
    single multiplicative per-edge correction factor [c] models the bias:
    at a depth whose estimate folded in [x] edge selectivities,
    [log est' = log est + x log c].  {!fit_runs} solves the through-origin
    least squares of [log (act/est)] against [x] — [log c = Σxy / Σx²] —
    which by construction minimizes the squared log-q-error on its
    training samples.  The fitted factor is a
    {!Ljqo_cost.Plan_cost.calibration}'s [sel_factor] (see
    {!Feedback.run_spec}'s [sel_factor]).

    A calibration file is a {!Ljqo_obs.Sealed} document (seal, tokens and
    frame are specified there) with this line schema:

    {v
    # ljqo-feedback-calibration v1
    H <n>
    C <name> <factor> (n lines)
    v}

    Names are single [[A-Za-z0-9._-]] tokens and none repeats; a factor
    outside [[1e-3, factor_ceiling]] refuses to load, so a corrupt
    or hand-edited file can never push the estimator past what the fit
    itself could produce. *)

type t = { entries : (string * float) list }
(** Catalog (benchmark-variation) name -> per-edge selectivity correction
    factor, in file order. *)

val factor_ceiling : float
(** [1e3] — fitted factors are clamped into [[1e-3, factor_ceiling]];
    anything outside means a degenerate fit. *)

val fit_samples : Feedback.sample list -> float option
(** The through-origin least-squares factor over samples with at least one
    applied edge and positive cardinalities; [None] when no sample
    qualifies. *)

val fit_runs : Feedback.run list -> float option
(** {!fit_samples} over every sample of every run. *)

val factor : t -> string -> float option

val to_string : t -> string
(** Raises [Invalid_argument] on a catalog name that is not a single
    [[A-Za-z0-9._-]] token. *)

val of_string : string -> (t, string) result
(** All-or-nothing parse with line-precise errors. *)

val save : path:string -> t -> unit

val load : path:string -> (t, string) result
(** {!of_string} of the file; [Error] names the path. *)

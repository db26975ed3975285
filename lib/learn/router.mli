(** Routing: turn a model's predictions into a (method, tick-budget)
    decision for one query.

    The router evaluates every weighted route at a few budget fractions of
    the caller's tick limit and picks the cheapest predicted log-scaled
    cost.  Ties (within 0.05 log10 units) resolve conservatively: prefer the
    larger budget, then the portfolio — so when the model cannot separate
    the candidates, adaptive degrades to roughly the portfolio at full
    budget rather than gambling on a thin prediction. *)

val fractions : float list
(** The candidate budget fractions, [\[0.25; 0.5; 1.0\]]. *)

val decide :
  Model.t ->
  Ljqo_catalog.Query.t ->
  ticks:int ->
  (Ljqo_core.Methods.t * int) option
(** The routing decision, or [None] when the query's features fall outside
    the model's training range ({!Model.in_range}) or the model has no
    weighted route — the caller then falls back to the portfolio at full
    budget.  Pure: no counters, no state; equal inputs give equal
    outputs. *)

type resolution =
  | Fixed  (** the method was not [Adaptive]; passed through unchanged *)
  | Routed  (** the model chose the method and budget *)
  | Fallback
      (** no model, or the model declined: the portfolio at full budget *)

val resolve :
  Model.t option ->
  Ljqo_core.Methods.t ->
  Ljqo_catalog.Query.t ->
  ticks:int ->
  Ljqo_core.Methods.t * int * resolution
(** [resolve model method_ q ~ticks] is the concrete [(method, ticks)] to
    run.  A method other than [Adaptive] passes through with [ticks].
    [Adaptive] takes {!decide}'s choice, its budget clamped to
    [\[1; ticks\]], or falls back to [Portfolio] at [ticks] when [model]
    is [None] or declines.  Pure, like {!decide}: the caller that owns the
    model (the CLI's [optimize], the plan-cache service with its pinned
    snapshot, {!Evaluate}) resolves before it calls
    {!Ljqo_core.Optimizer.optimize}, and counts the route with {!bump}
    where the optimization actually runs. *)

val bump : Ljqo_core.Methods.t -> resolution -> unit
(** [bump m r] counts one resolved request: [Routed] bumps [m]'s
    [learn.route.*] counter ([ii], [sa], [2po], or [portfolio] for any
    other method), [Fallback] bumps [learn.route.fallback], [Fixed] bumps
    nothing. *)

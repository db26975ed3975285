(** Shared evaluation context for one optimization run.

    The evaluator owns the query, the cost model and its calibration, the
    tick budget and the incumbent best plan.  Every method routes plan
    evaluations through it so that (a) ticks are charged uniformly, (b) the
    best solution seen anywhere survives budget exhaustion, and (c)
    checkpoint snapshots of the incumbent cost are taken as the budget is
    consumed — one run then yields the quality-at-every-time-limit curve
    the paper plots.

    [Budget.Exhausted] escapes from any charging operation when time is up;
    [Converged] escapes when the incumbent is within [1 + epsilon] of the
    admissible lower bound (the paper's "sufficiently close to a lower
    bound" stopping condition).  Method drivers catch both. *)

exception Converged

type t

val create :
  ?epsilon:float ->
  ?checkpoints:int list ->
  ?deadline:float ->
  ?clock:(unit -> float) ->
  ?calibration:Ljqo_cost.Plan_cost.calibration ->
  query:Ljqo_catalog.Query.t ->
  model:Ljqo_cost.Cost_model.t ->
  ticks:int ->
  unit ->
  t
(** [epsilon] defaults to 0.01; [ticks <= 0] means unlimited.  [deadline] and
    [clock] are forwarded to {!Budget.create}: a run past its wall-clock
    deadline dies with [Budget.Deadline_exceeded] from any charging
    operation.  [calibration] applies to every plan costed in this run:
    {!eval}, and the search states, neighbor kernels, heuristics and
    portfolio sub-evaluators built on this evaluator read it back with
    {!calibration}. *)

val query : t -> Ljqo_catalog.Query.t
val model : t -> Ljqo_cost.Cost_model.t
val calibration : t -> Ljqo_cost.Plan_cost.calibration option
val lower_bound : t -> float

val epsilon : t -> float
(** The convergence tolerance this evaluator was created with — lets a
    driver spawn sub-evaluators (e.g. portfolio replicates) that stop under
    the same condition. *)

val charge : t -> int -> unit
(** Charge raw ticks (heuristic bookkeeping work). *)

val remaining : t -> int option
val used : t -> int
val exhausted : t -> bool

val deadline_hit : t -> bool
(** Whether this run was killed by its wall-clock deadline. *)

val eval : t -> Plan.t -> float
(** Full plan evaluation: charges [n] ticks, records the plan as a candidate
    incumbent, may raise [Budget.Exhausted] or [Converged].  The plan must be
    valid (checked with an assertion). *)

val record : t -> Plan.t -> float -> unit
(** Record an externally costed candidate (e.g. from incremental recosting)
    as a potential incumbent; charges nothing; raises [Converged] when it
    reaches the lower-bound stopping condition. *)

val best : t -> (float * Plan.t) option
val best_cost : t -> float
(** Raises [Invalid_argument] if no plan was recorded yet. *)

val checkpoint_costs : t -> (int * float) list
(** For each requested checkpoint (ascending): the incumbent cost when the
    used-tick count crossed it, or the final incumbent for checkpoints the
    run never reached (a method that stops early keeps its result). *)

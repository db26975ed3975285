(** Intra-query portfolio racing: II / SA / two-phase replicates race across
    domains in synchronized rounds, exchanging the incumbent at round
    barriers.

    The parent evaluator's tick budget is split evenly into
    [width * rounds] slices.  In each round, [width] replicates run
    concurrently (via {!Ljqo_stats.Parallel}), each driving its leg —
    [legs.(i mod length legs)] — against a private sub-evaluator holding one
    slice, warm-started from the incumbent of the previous barrier.  At the
    barrier, every replicate's best plan is recorded into the parent (in
    replicate order) and the parent is charged the replicates' combined
    spend; the new global incumbent then seeds every replicate of the next
    round.

    Determinism: replicate RNG streams are split from the caller's stream
    ([Rng.split_at], which does not advance the parent), replicates never
    communicate except at the barrier, and the barrier folds in replicate
    order on the calling domain — so for a fixed seed the result is
    bit-identical whatever the [--jobs] count.  Enforced by
    [test_portfolio.ml] against a sequential best-of-replicates oracle.
    The observability snapshot is too: legs run under
    {!Ljqo_obs.Obs.sub_run} with the caller's phase, and the run's
    trajectory holds only the parent's barrier records.

    The parent's wall-clock deadline (if any) is only observed at barriers —
    the finest-grained preemption compatible with bit-identical results. *)

type leg = II | SA | Two_phase

val leg_of_name : string -> leg option
(** ["II"], ["SA"] or ["2PO"], case-insensitive. *)

type params = { width : int; rounds : int; legs : leg list }
(** [width] replicates per round, [rounds] barrier-synchronized rounds,
    [legs] assigned round-robin by replicate index. *)

val default_params : params
(** Width 4, 4 rounds, legs [[II; SA; Two_phase]]. *)

val run :
  ?params:params ->
  ii_params:Iterative_improvement.params ->
  sa_params:Simulated_annealing.params ->
  ?start:Plan.t ->
  Evaluator.t ->
  Ljqo_stats.Rng.t ->
  unit
(** Raises [Invalid_argument] when the parent evaluator has an unlimited
    tick budget (legs would never reach a barrier) or when [params] is
    malformed ([width <= 0], [rounds <= 0], empty [legs]).  [?start] seeds
    round 0's replicates; must be valid (callers go through
    {!Methods.run}, which checks).  Like the other method drivers it lets
    [Budget.Exhausted] / [Evaluator.Converged] / [Budget.Deadline_exceeded]
    escape to the caller. *)

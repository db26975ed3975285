(** Execution-grounded estimation feedback (ROADMAP item 3).

    Executes optimized plans over synthetic {!Ljqo_exec.Relation_data},
    aligns each step's {e actual} output rows against
    {!Ljqo_cost.Plan_cost.eval}'s {e estimated} intermediate cardinalities,
    and records the disagreement as q-error — [max (est/act, act/est)] —
    into the [feedback.*] obs histograms (per join depth, in
    milli-q-error) and counters.

    {!observe} runs the plan and keeps the ground truth; {!measure}
    estimates under the calibration it is given and compares.  Both depend
    only on their arguments, so {!run_spec} fans whole items (optimize,
    observe, measure) out over jobs in one pass.  All recording is pure
    observation — atomic counter/histogram adds — so feedback totals are
    bit-identical across job counts, and running with instrumentation off
    changes nothing but the totals' absence. *)

type sample = {
  depth : int;  (** join depth ([>= 1]; depth 0 is exact by construction) *)
  edges : int;
      (** join edges inside the placed prefix at this depth — the number of
          effective edge selectivities folded into [est], the calibration
          fit's regressor *)
  est : float;  (** estimated intermediate cardinality *)
  act : float;  (** observed intermediate cardinality *)
  qerror : float;  (** [Plan_cost.qerror ~est ~act] *)
}

type observed = {
  plan : Ljqo_core.Plan.t;
  act_cards : float array;
      (** observed cardinalities, aligned with [Executor.cardinalities]
          (index 0 = the first relation); covers only the completed prefix
          when truncated *)
  truncated_at : int option;
      (** join depth of the step that raised [Result_too_large], if any *)
  result_rows : int option;  (** final result size; [None] when truncated *)
}

type measurement = {
  samples : sample list;  (** depth order, depths [>= 1] *)
  mean_qerror : float;  (** arithmetic mean over [samples]; 1 when empty *)
  cost_ratio : float option;
      (** q-ratio of estimated total cost vs the model re-priced with
          observed cardinalities; [None] for truncated executions *)
  m_truncated_at : int option;  (** copied from the observation *)
}

val milli : float -> int
(** The histogram encoding: [q * 1000], truncated ([q = 1] records as
    1000), saturating far above any meaningful q-error. *)

val depth_hist : int -> Ljqo_obs.Obs.hist
(** The per-depth q-error histogram a sample at this join depth records
    into; depths [>= 4] share [Feedback_qerror_d4plus]. *)

val observe :
  ?max_rows:int ->
  Ljqo_catalog.Query.t ->
  data:Ljqo_exec.Relation_data.t array ->
  Ljqo_core.Plan.t ->
  observed
(** Execute the plan and keep per-depth ground truth.  Bumps
    [feedback.plans_executed], and [feedback.result_too_large] when the
    executor's row cap fires — in which case the completed prefix is still
    returned and the batch can continue (truncation never escapes as an
    exception). *)

val measure :
  ?calibration:Ljqo_cost.Plan_cost.calibration ->
  model:Ljqo_cost.Cost_model.t ->
  Ljqo_catalog.Query.t ->
  data:Ljqo_exec.Relation_data.t array ->
  observed ->
  measurement
(** Estimate (under [calibration], if given) and compare: records one
    per-depth q-error into the [feedback.qerror.d*] histogram family and —
    for complete executions — the cost q-ratio into [feedback.cost_ratio].
    Safe to call from any domain. *)

(** {1 Workload runs} *)

type run = { n_joins : int; rep : int; measurement : measurement }

val run_spec :
  ?jobs:int ->
  ?max_rows:int ->
  ?sel_factor:float ->
  model:Ljqo_cost.Cost_model.t ->
  method_:Ljqo_core.Methods.t ->
  t_factor:float ->
  ns:int list ->
  per_n:int ->
  seed:int ->
  Ljqo_querygen.Benchmark.spec ->
  run list
(** One benchmark variation end to end: for each [n] in [ns] and each of
    [per_n] replicates, generate a query from [spec], optimize it with
    [method_] under the paper's [t_factor * n^2] tick budget, generate
    matching relation data, execute the optimized plan, and measure.  Every
    stream seed derives from [(seed, n, rep)] — never from scheduling — and
    optimization always runs {e uncalibrated}; [sel_factor] (if given)
    calibrates the measurement only, so before/after calibration
    comparisons score the {e same} plans.  [jobs] spreads the items over
    domains and is a pure speed knob; concurrent calls with different
    [sel_factor]s do not interact.  Raises [Invalid_argument] on an empty
    or non-positive grid. *)

(** {1 Aggregation} *)

module Summary : sig
  type depth_stat = {
    label : string;  (** ["depth 1"] .. ["depth 4+"] *)
    count : int;
    p50 : float;
    p95 : float;
    worst : float;
  }

  type t = {
    plans : int;
    truncated : int;
    n_samples : int;
    mean : float;  (** arithmetic mean q-error over all samples *)
    depths : depth_stat list;  (** non-empty bands only, in depth order *)
  }

  val of_runs : run list -> t
end

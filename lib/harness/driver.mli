(** Shared machinery for the paper's experiments.

    One experiment runs a set of methods over a workload at a ladder of time
    limits (the paper's [t * N^2] factors).  Following Section 6.1:

    - each method runs [replicates] times per query with different seeds and
      the replicate costs are averaged;
    - every run is given the [9 N^2] budget with checkpoints at each
      requested factor, so one run yields the whole quality-vs-time curve;
    - per query, costs are scaled by the best cost any compared method
      achieved at [9 N^2];
    - scaled costs at or above 10 are outlying values, coerced to 10;
    - the per-datapoint statistic is the mean of the coerced scaled costs
      over the workload.

    Resilience: every per-query unit of work runs under {!Guard.run}, so a
    crash or wall-clock timeout in one query is recorded (and surfaced in
    the outcome and its tables) instead of destroying the experiment.  With
    [~checkpoint], completed per-query results are persisted as they finish
    and an interrupted experiment can be resumed bit-identically. *)

type scale = {
  per_n : int;  (** queries per value of N *)
  replicates : int;
}

val default_scale : scale
(** 10 queries per N, 2 replicates — minutes-fast defaults. *)

val paper_scale : scale
(** 50 queries per N, 2 replicates — the paper's population sizes. *)

type outcome = {
  methods : Ljqo_core.Methods.t list;
  tfactors : float list;
  averages : float array array;  (** [averages.(mi).(ti)]; NaN if no query survived *)
  outlier_fractions : float array array;
  n_queries : int;  (** total queries attempted *)
  n_crashed : int;  (** queries dropped because a run raised *)
  n_timed_out : int;
      (** queries dropped because the deadline fired before any plan existed *)
  n_run_timeouts : int;
      (** individual method runs cut short by the deadline but salvaged with
          their incumbent plan (still included in the averages) *)
  crashes : Guard.failure list;  (** details of the dropped queries, in order *)
}

val run_experiment :
  ?kappa:int ->
  ?config:Ljqo_core.Methods.config ->
  ?seed:int ->
  ?deadline:float ->
  ?checkpoint:Checkpoint.request ->
  ?run_label:string ->
  workload:Ljqo_querygen.Workload.t ->
  methods:Ljqo_core.Methods.t list ->
  model:Ljqo_cost.Cost_model.t ->
  tfactors:float list ->
  replicates:int ->
  unit ->
  outcome
(** Runs exactly [methods], in order: the outcome's [methods] is that list,
    and [averages.(mi)] is its [mi]-th method's row, so a caller labels
    columns from either.

    [deadline] bounds every individual method run in wall-clock seconds (on
    top of the deterministic tick budget); see {!Ljqo_core.Optimizer.optimize}.

    [checkpoint] enables persistence: completed per-query results are
    appended (and flushed) to [dir/<run_label>.ckpt] as they finish, keyed by
    a fingerprint of the full experiment configuration.  With
    [resume = true], queries already in a matching file are skipped and their
    stored bits reused, making the resumed outcome identical to an
    uninterrupted run. *)

val heuristic_state_experiment :
  ?kappa:int ->
  ?seed:int ->
  workload:Ljqo_querygen.Workload.t ->
  model:Ljqo_cost.Cost_model.t ->
  tfactors:float list ->
  states:(Ljqo_catalog.Query.t -> charge:(int -> unit) -> Plan_source.t) list ->
  unit ->
  float array array
(** For Tables 1 and 2: each "method" is a pure heuristic described as a
    lazy stream of states; at each time limit the best state generated and
    evaluated within the budget counts.  Scaling reference: the best of
    II/IAI/AGI at [9 N^2] on the same query.  Per-query crashes are logged
    and drop that query's samples only. *)

val outcome_table :
  title:string -> outcome -> Ljqo_report.Table.t
(** When queries were dropped, the title is annotated with the crash and
    timeout counts. *)

val outcome_chart : title:string -> outcome -> string

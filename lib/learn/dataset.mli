(** Training samples for the learned router.

    A sample is one completed optimizer run: the query's feature vector, the
    concrete route that ran (a {!Ljqo_core.Methods} name), the tick budget it
    was given, and the final cost alongside the query's cost lower bound
    (the pair from which the training target — log10 scaled cost — is
    derived).  Samples come only from fresh in-process runs ({!collect}).
    [ljqo learn train --dump-samples] writes them as JSONL ({!save_jsonl});
    nothing in the repository reads those files back. *)

type sample = {
  features : float array;  (** {!Features.of_query} of the query *)
  route : string;  (** [Methods.name] of the method that ran *)
  ticks : int;  (** the tick budget the run was given *)
  cost : float;  (** final plan cost *)
  lower_bound : float;  (** the query's cost lower bound under the model *)
}

val target : sample -> float
(** The regression target: [log10 (max 1 (cost / lower_bound))] — the
    log-domain scaled cost, 0 at the lower bound. *)

val usable : sample -> bool
(** Whether the sample can train: positive finite lower bound, finite
    non-negative cost, positive ticks. *)

(** {1 JSONL persistence} *)

val to_json_line : sample -> string
(** One JSON object, no trailing newline.  Floats use round-trippable
    [%.17g]. *)

val save_jsonl : path:string -> sample list -> unit

val save_trajectories :
  path:string -> (string * (int * float) list) list -> unit
(** Write [Obs.trajectories ()] output as JSONL, one
    [{"label":..,"points":[[ticks,cost],..]}] object per labelled run — the
    format [ljqo-bench --trajectories] emits. *)

val collect :
  ?jobs:int ->
  spec_indices:int list ->
  ns:int list ->
  per_n:int ->
  seed:int ->
  t_factor:float ->
  routes:Ljqo_core.Methods.t list ->
  fractions:float list ->
  model:Ljqo_cost.Cost_model.t ->
  unit ->
  sample list
(** Run the full (benchmark spec x workload entry x route x budget
    fraction) grid in process and return one sample per cell, in grid
    order.  [spec_indices] index {!Ljqo_querygen.Benchmark.by_index};
    each route runs at [max 1 (fraction * t_factor * N^2 * kappa)] ticks.
    Every cell is a pure function of its seeds, and results are folded in
    input order, so the sample list is bit-identical for any [jobs]. *)

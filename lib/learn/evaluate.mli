(** The ROADMAP evaluation: mean scaled cost at a fixed total budget,
    adaptive versus each fixed method, across the paper's nine workload
    variations.

    For every variation a fresh workload is generated, every query runs
    under each compared method at the [t_factor * N^2] budget with one seed
    per query (shared across methods, so a routed method replays the fixed
    method's search exactly), costs are scaled per query by the best cost
    any compared method achieved, coerced at the paper's outlier threshold,
    and averaged.  Deterministic and [jobs]-independent. *)

type row = {
  variation : string;  (** benchmark spec name *)
  means : (string * float) list;  (** method name -> mean scaled cost *)
}

type report = {
  methods : string list;  (** column order: the fixed four, then adaptive *)
  rows : row list;  (** one per variation, in benchmark order *)
  overall : (string * float) list;  (** method -> mean over all queries *)
  route_counts : (string * int) list;
      (** how often adaptive chose each route (["fallback"] = declined) *)
}

val run :
  ?jobs:int ->
  ns:int list ->
  per_n:int ->
  seed:int ->
  t_factor:float ->
  cost_model:Ljqo_cost.Cost_model.t ->
  Model.t option ->
  report
(** [None] routes every adaptive request to the portfolio fallback (the
    no-model baseline). *)

(** ASCII rendering of join trees, for EXPLAIN-style output.

    Renders a left-deep permutation (or any bushy tree) as an indented
    operator tree with per-step size estimates, the way database EXPLAIN
    output reads:

    {v
    |><| est 500 (cost 2010)
    ├── |><| est 1000 (cost 2600)
    │   ├── A [100 rows]
    │   └── B [1000 rows]
    └── C [10 rows]
    v} *)

val render_plan :
  ?model:Ljqo_cost.Cost_model.t ->
  Ljqo_catalog.Query.t ->
  Plan.t ->
  string
(** The left-deep tree of a valid permutation with the clamped estimator's
    per-step sizes (and costs when [model] is given; sizes alone use the
    memory model). *)


(** Left-deep plan execution over synthetic data.

    Executes a valid permutation as the paper's outer linear join tree: the
    running intermediate result is a set of *binding vectors* (the tuple
    index of each already-joined relation, stored by column; see Layout),
    and each step hash-joins it with the next base relation on all
    applicable join predicates.  A step with
    no applicable predicate is a cross product.

    This substrate lets tests check the size estimator against ground truth
    and lets the examples run optimized plans for real.  Result sizes are
    capped ([Result_too_large]) because bad plans can be astronomically
    large — that is the point of the paper.

    {b Layout.}  The running intermediate is columnar: one int column of
    tuple indices per placed relation, in plan order.  A step buckets the
    inner relation's tuples by a hash of the anchor predicate's value into
    a CSR table (bucket offsets plus a tuple permutation), probes it with
    each outer row's anchor value, verifies the remaining predicates, and
    records each output row as (outer row, inner tuple); the prefix columns
    are gathered once the step completes.  The probe, verify and emit loop
    allocates nothing.  A run returns only counts, so the last step's
    prefix columns are never gathered: [on_row], when given, reads each
    final row through its outer row instead.

    {b Emit order.}  Output rows follow the outer rows in order; the inner
    tuples matching one outer row come in descending tuple index (a cross
    product: ascending).  Only the anchor predicate (the inner relation's
    lowest-numbered placed neighbour) is hashed, and [probe_comparisons]
    counts the inner tuples whose anchor value equals the outer row's.
    The rows [on_row] sees, the step statistics and the [Result_too_large]
    payload are therefore a function of the query, data, plan and cap
    alone.

    {b Scratch.}  The columns and the build table live in a per-domain
    workspace ([Domain.DLS]), double-buffered and reused across steps and
    runs, so the domains of a parallel batch never share one.  A run
    started from inside another run's [on_step] or [on_row] gets a
    workspace of its own.  After a run the domain keeps at most 2{^20}
    words (8 MiB) of scratch; a larger workspace is dropped, so one huge
    execution does not pin its memory for the life of the domain. *)

exception Result_too_large of int
(** Carries the row count that exceeded the cap. *)

type step_stat = {
  inner_relation : int;
  output_rows : int;
  probe_comparisons : int;  (** tuple pairs inspected while probing *)
}

type result = {
  row_count : int;  (** rows in the final result *)
  steps : step_stat list;  (** in plan order *)
  first_card : int;  (** cardinality of the first (leftmost) relation *)
}

val run :
  ?max_rows:int ->
  ?on_step:(step_stat -> unit) ->
  ?on_row:(int array -> unit) ->
  Ljqo_catalog.Query.t ->
  data:Relation_data.t array ->
  Ljqo_core.Plan.t ->
  result
(** [max_rows] defaults to 1_000_000; the step whose output passes it
    raises [Result_too_large] with the first count past it ([max_rows + 1]
    for a non-negative cap).  The plan must be a permutation of the
    query's relations (else [Invalid_argument]) and [data] must be indexed
    by relation id.  [on_step] is called with each step's statistics as the step completes —
    the only way to recover the completed prefix when a later step raises
    {!Result_too_large} (the feedback layer uses it to keep partial
    per-depth cardinalities).  Each completed step's [probe_comparisons]
    also feeds the [exec.probe_comparisons] obs counter (a no-op when
    observability is off).  [on_row] is called once per final row, in emit
    order, after the last step: with the row's binding vector, where
    [row.(r)] is relation [r]'s tuple index.  The vector is reused between
    calls; copy it to keep it. *)

val cardinalities : result -> int list
(** Intermediate result sizes after each step (starting with the first
    relation's cardinality). *)

val nested_loop_oracle :
  ?max_rows:int ->
  Ljqo_catalog.Query.t ->
  data:Relation_data.t array ->
  Ljqo_core.Plan.t ->
  int
(** Final result cardinality computed by naive nested loops — an independent
    oracle for testing the hash-join executor. *)

(** Multiple join methods — the paper's stated future work ("Our work can be
    extended by incorporating join methods other than the hash join
    method").

    Three classic in-memory methods are priced per join step:

    - {b hash join}: build on the inner, probe with the outer (identical to
      {!Memory_model});
    - {b sort-merge join}: sort both inputs, then a linear merge.  Note the
      paper's observation that sort-merge does *not* have the
      [n1 * g(n2)] ASI cost shape KBZ requires — visible here in the
      [n1 log n1] term;
    - {b nested loops}: compare every pair; the only method applicable to a
      cross product.

    {!Adaptive_memory} is a {!Cost_model.S} that charges each step the
    cheapest applicable method, turning every optimizer in this library into
    a joint join-order + join-method optimizer without changing any search
    code (the method choice per step is a pure function of the step's
    inputs, so it composes with the incremental recosting). *)

type t = Hash_join | Sort_merge_join | Nested_loop_join

val all : t list

val name : t -> string

type params = {
  hash : Memory_model.params;
  c_sort : float;  (** per comparison while sorting, [n log2 n] of them *)
  c_merge : float;  (** per tuple scanned during the merge phase *)
  c_loop_compare : float;  (** per pair compared by nested loops *)
  c_output : float;
}

val cost : ?params:params -> t -> is_cross:bool -> Cost_model.join_input -> float
(** Cost of executing the step with the given method; [input.cost] is
    neither read nor written.  Nested loops accepts any input; hash and
    sort-merge require an equality predicate and return [infinity] on a
    cross product. *)

val applicable : t -> is_cross:bool -> bool

val cheapest : ?params:params -> is_cross:bool -> Cost_model.join_input -> t * float
(** The cheapest applicable method for this step, and its cost.  Nested
    loops, then hash, then sort-merge: a later method takes over only when
    strictly cheaper, so a tie or a NaN keeps the earlier one.
    [input.cost] is neither read nor written. *)

module Adaptive_memory : Cost_model.S

val annotate :
  ?params:params ->
  Ljqo_catalog.Query.t ->
  int array ->
  (int * t * float) list
(** For each join step of the plan (position, method, cost): the per-step
    method selection the adaptive model implies — what an EXPLAIN would
    print. *)

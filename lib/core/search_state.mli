(** Mutable search state: a valid permutation plus the incremental costing
    arrays that make move evaluation cheap.

    Alongside the permutation, its inverse [pos], the intermediate
    cardinalities and the per-step costs, the state caches the left-to-right
    partial sums of the step costs ({!psum_view}); the plan's cost is the
    last of them.  Every mutation ([init], a successful recost, [rollback],
    {!apply_evaluated}) refreshes them, so a candidate move starts from one
    read of the sum over the steps it leaves alone.  All costing goes
    through {!Ljqo_cost.Plan_cost.Stepper}, with placement read from [pos].

    A proposed move is applied *in place* and recosted over only the affected
    window of join steps; the caller then decides to [commit] (keep the new
    state and offer it to the evaluator as an incumbent) or [rollback]
    (restore the previous state exactly).  Moves that would create a cross
    product are rejected and leave the state untouched.

    Tick accounting: each recosted join step costs one tick, charged to the
    evaluator's budget.  [Budget.Exhausted] can therefore escape from
    [try_move]/[try_rewrite]; when it does the state may be mid-mutation, but
    by then the incumbent best lives safely in the evaluator. *)

type t

type snapshot

val init : Evaluator.t -> Plan.t -> t
(** Full evaluation of the start permutation (which must be valid); charges
    [n] ticks and records it as an incumbent candidate. *)

val evaluator : t -> Evaluator.t
val n : t -> int
val cost : t -> float
val perm : t -> Plan.t
(** A copy of the current permutation. *)

val perm_view : t -> Plan.t
(** The state's own permutation array, NOT a copy — an O(1) read for hot
    loops that only inspect it.

    Aliasing contract: the array is owned by the state and mutated in place
    by [try_move]/[try_rewrite]/[rollback]; callers must not mutate it, must
    not retain it across any state-mutating call, and must [Array.copy] (or
    use {!perm}) before storing it anywhere.  Violations corrupt the search
    state silently. *)

val cards_view : t -> float array
(** The state's intermediate-cardinality array ([cards.(i)] after position
    [i]), NOT a copy — same aliasing contract as {!perm_view}. *)

val step_costs_view : t -> float array
(** The state's per-step cost array ([step_costs.(0) = 0.]), NOT a copy —
    same aliasing contract as {!perm_view}. *)

val pos_view : t -> int array
(** The state's inverse permutation ([pos.(perm.(i)) = i]), NOT a copy —
    same aliasing contract as {!perm_view}. *)

val psum_view : t -> float array
(** The state's partial sums, NOT a copy — same aliasing contract as
    {!perm_view}.  [psum.(i)] is [((0 +. c1) +. c2) ... +. ci] over the step
    costs [c], added left to right, so [psum.(n - 1)] is {!cost} bit for
    bit. *)

val try_move : t -> Move.t -> (float * snapshot) option
(** Apply the move and recost.  [Some (new_total, snap)]: the state now holds
    the moved permutation; pass [snap] to [rollback] to restore, or call
    [commit].  [None]: the move was invalid; the state is unchanged. *)

val try_rewrite : t -> lo:int -> rels:int array -> (float * snapshot) option
(** Replace the relations at positions [lo .. lo + length rels - 1] with
    [rels] (which must be a rearrangement of the relations currently in that
    window) and recost; same protocol as [try_move]. *)

val rollback : t -> snapshot -> unit

val apply_evaluated :
  t ->
  Move.t ->
  lo:int ->
  upto:int ->
  cards:float array ->
  step_costs:float array ->
  unit
(** Install a move already evaluated off-state by {!Neighborhood}: applies
    the permutation mutation and copies the supplied slices
    ([max lo 1 .. upto - 1], plus [cards.(0)] when [lo = 0]) into the
    state.  From [upto] on, {!try_move} would have recomputed exactly the
    stored values, so that tail stays in place and only the partial sums
    are refreshed, until they meet the stored ones.  Charges nothing — the
    kernel charged the evaluation.  The supplied slices must hold exactly
    what {!try_move} would have computed for this move;
    {!Neighborhood.accept} is the only intended caller. *)

val commit : t -> unit
(** Record the current state with the evaluator (incumbent tracking /
    convergence test). *)

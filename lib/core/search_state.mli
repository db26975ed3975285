(** Mutable search state: a valid permutation plus the incremental costing
    arrays that make move evaluation cheap.

    Alongside the permutation, its inverse [pos], the intermediate
    cardinalities and the per-step costs, the state caches the left-to-right
    partial sums of the step costs ({!psum_view}); the plan's cost is the
    last of them.  [init] and {!install_evaluated} keep them current, so a
    candidate change starts from one read of the sum over the steps it
    leaves alone.

    The state does not evaluate candidates itself: {!Neighborhood} does,
    for single moves and for window rewrites alike, without touching the
    state, and installs only an accepted change.  A caller then decides
    whether to [commit] (offer the state to the evaluator as an incumbent).

    Tick accounting: each recosted join step costs one tick, charged to the
    evaluator's budget when the change is evaluated.  [Budget.Exhausted]
    can therefore escape from {!Neighborhood.consider} and
    {!Neighborhood.consider_rewrite}; when it does the state is exactly as
    before the call, and the incumbent best lives in the evaluator. *)

type t

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

    Aliasing contract: the array is owned by the state.  {!Neighborhood} is
    the only other writer: it mutates [perm] and [pos] in place when it
    installs an accepted change, and moves [pos] during an evaluation,
    restoring it before returning.  Other callers must not mutate the views,
    must not retain them across an accepted change, and must [Array.copy]
    (or use {!perm}) before storing them anywhere.  Violations corrupt the
    search state silently. *)

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

val install_evaluated :
  t -> lo:int -> upto:int -> cards:float array -> step_costs:float array -> unit
(** Install a change already evaluated off-state by {!Neighborhood}, whose
    permutation and positions the caller has already written through the
    views: copies the supplied slices ([max lo 1 .. upto - 1], plus
    [cards.(0)] when [lo = 0]) into the state.  From [upto] on, a full
    recost would reproduce the stored values, so that tail stays in place
    and only the partial sums are refreshed, until they meet the stored
    ones.  Charges nothing — the evaluation was charged.  The supplied
    slices must hold exactly what costing the new permutation gives;
    {!Neighborhood.accept} is the only intended caller. *)

val commit : t -> unit
(** Record the current state with the evaluator (incumbent tracking /
    convergence test). *)

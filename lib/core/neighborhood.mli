(** Move evaluation without mutation: the neighbor kernel behind II, SA and
    two-phase optimization.

    The reference protocol ({!Search_state.try_move}: snapshot, mutate,
    recost to the end of the plan, rollback) allocates three window slices
    per attempt and pays rollback writes on every rejection.  This kernel
    needs no setup per candidate: the sum over the steps a move leaves alone
    is one read of the state's partial sums ({!Search_state.psum_view}), and
    placement comes from the state's own positions ({!Search_state.pos_view})
    with the move's window applied for the walk and undone before
    [consider] returns — or raises.  The moved permutation is read
    virtually, step costs stream through {!Ljqo_cost.Plan_cost.Stepper}
    into preallocated scratch, and the walk stops where the running
    intermediate size meets the stored one again.  There is one path at
    every graph width.  A candidate allocates only what the cost model's
    [join_input] costs per computed step, plus its [Some total].  Only an
    accepted move touches the state.

    Bit-identity contract (qcheck-enforced in [test_neighborhood.ml]):
    [consider] returns exactly what [try_move] would, charges the same ticks
    at the same point (so [Budget.Exhausted] and convergence fire at the
    same proposal), and [accept] leaves the state bit-identical to the
    reference's committed state.

    A workspace is bound to one {!Search_state.t} and is single-threaded,
    like the state itself. *)

type t

val create : Search_state.t -> t
(** Preallocates scratch sized to the state.  O(n). *)

val state : t -> Search_state.t

val consider : t -> Move.t -> float option
(** Evaluate one neighbor.  [Some total]: the move is valid and would yield
    a plan of cost [total]; follow with exactly one of {!accept} or
    {!reject} before the next [consider].  [None]: the move introduces a
    cross product; the state is untouched and nothing is pending.  Charges
    the evaluator exactly as [try_move] would (may raise
    [Budget.Exhausted] / [Budget.Deadline_exceeded]).  Whatever escapes —
    a budget stop or an exception from the cost model — leaves the state
    exactly as before, with nothing pending. *)

val accept : t -> unit
(** Install the pending considered move into the state (the state's cost
    becomes the value [consider] returned).  Does {e not} commit to the
    evaluator — call {!Search_state.commit} as with the reference path. *)

val reject : t -> unit
(** Discard the pending considered move; the state is as before
    [consider]. *)

val adjacent_swaps : t -> (int -> float option -> unit) -> unit
(** [adjacent_swaps t f] evaluates the full adjacent-swap neighborhood
    [Swap (i, i+1)] for [i = 0 .. n-2], calling [f i verdict] for each — a
    plain {!consider}/{!reject} loop, the [search:neighbors-fused] micro
    kernel.  Read-only: the state is unchanged and nothing is left pending.
    Each candidate charges the evaluator exactly as a lone [try_move] would,
    in ascending [i] order. *)

(** Candidate evaluation without mutation: the one kernel behind every
    search method that changes a plan in place — II, SA, two-phase
    optimization, local improvement and the SG88 baselines.

    A candidate is a {!Move.t} ({!consider}) or a rewrite of a window of
    consecutive positions ({!consider_rewrite}); both go through one walk.
    It needs no setup: the sum over the steps the candidate leaves alone is
    one read of the state's partial sums ({!Search_state.psum_view}), and
    placement comes from the state's own positions
    ({!Search_state.pos_view}) with the candidate's window applied for the
    walk and undone before the call returns — or raises.  The changed
    permutation is read virtually, step costs stream through
    {!Ljqo_cost.Plan_cost.Stepper} into preallocated scratch, and the walk
    stops where the running intermediate size meets the stored one again.
    There is one path at every graph width.  A candidate allocates nothing
    per computed step, only its [Some total].  Only an accepted candidate
    touches the state.

    Tick accounting: a candidate whose window starts at [lo] charges
    [n - max lo 1] ticks — the steps a recost to the end of the plan would
    walk — before any step is walked, valid or not, however early the walk
    stops.  Bit-identity contract (qcheck-enforced in [test_neighborhood.ml]
    against the snapshot, mutate, recost and rollback protocol kept in
    [test/search_state_reference.ml]): the verdict and the charge equal that
    protocol's, at the same point (so [Budget.Exhausted] and convergence
    fire at the same proposal), and [accept] leaves the state bit-identical
    to its committed state.

    A workspace is bound to one {!Search_state.t} and is single-threaded,
    like the state itself. *)

type t

val create : Search_state.t -> t
(** Preallocates scratch sized to the state.  O(n). *)

val state : t -> Search_state.t

val consider : t -> Move.t -> float option
(** Evaluate one neighbor.  [Some total]: the move is valid and would yield
    a plan of cost [total]; follow with exactly one of {!accept} or
    {!reject} before the next candidate.  [None]: the move introduces a
    cross product; the state is untouched and nothing is pending.  May
    raise [Budget.Exhausted] / [Budget.Deadline_exceeded].  Whatever
    escapes — a budget stop or an exception from the cost model — leaves
    the state exactly as before, with nothing pending.  Raises
    [Invalid_argument] while a candidate is pending. *)

val consider_rewrite : t -> lo:int -> rels:int array -> float option
(** Evaluate replacing the relations at positions
    [lo .. lo + length rels - 1] with [rels], which must be a rearrangement
    of the relations currently there; otherwise exactly as {!consider}.
    [rels] is copied, so the caller may reuse it at once.  Raises
    [Invalid_argument] when the window falls outside the plan. *)

val accept : t -> unit
(** Install the pending candidate into the state (the state's cost becomes
    the value {!consider} or {!consider_rewrite} returned).  Does {e not}
    commit to the evaluator — call {!Search_state.commit} for that. *)

val reject : t -> unit
(** Discard the pending candidate; the state is as before it was
    considered. *)

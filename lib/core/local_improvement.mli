(** The local improvement heuristic (Section 4.3).

    Given a permutation, slide a window (*cluster*) of [c] consecutive
    positions along it with overlap [o] (successive windows start [c - o]
    apart) and replace each window's contents by the best valid arrangement
    found by exhaustive search within the window.  The whole-plan cost can
    only decrease.  With overlap, passes repeat until a pass changes
    nothing.

    Cluster search is factorial in [c]; the paper found [(5,4)], [(4,3)],
    [(3,2)], [(2,1)], [(2,0)] the useful strategies, picked in that order by
    available time ([strategy_ladder], [auto]).

    Every arrangement is a window rewrite evaluated by
    {!Neighborhood.consider_rewrite}, and only the best improving one of a
    cluster is installed. *)

val strategy_ladder : (int * int) list
(** [(c, o)] pairs, best first: [(5,4); (4,3); (3,2); (2,1); (2,0)]. *)

val pass_ticks_estimate : n:int -> c:int -> o:int -> int
(** The cluster count times [c! * c]: [c] recosted steps for each of a
    cluster's [c!] arrangements.  It is not an upper bound.  A pass charges
    every arrangement but the current one [n - max p 1] ticks, where [p] is
    the cluster's first position — the steps of a recost to the end of the
    plan, valid or not — and charges an improving cluster's winner a second
    time when it is installed.  A pass therefore costs more than the
    estimate, increasingly so with [n]: 1.6x with [(5, 4)] at [n = 11], up
    to 40x with [(2, 1)] at [n = 201] on the benchmark's default queries. *)

val one_pass : Search_state.t -> c:int -> o:int -> bool
(** Returns whether any cluster improved.  Raises [Invalid_argument] unless
    [2 <= c] and [0 <= o < c]. *)

val improve : Search_state.t -> c:int -> o:int -> unit
(** Passes until a pass makes no change (just one pass when [o = 0],
    mirroring the paper's observation that non-overlapping clusters converge
    in a single pass). *)

val auto : Search_state.t -> unit
(** Repeatedly run the first strategy of the ladder whose
    {!pass_ticks_estimate} fits the remaining budget, until a pass improves
    nothing or no strategy fits.  Since the estimate is below a pass's
    real charge, [auto] may start a pass the budget cannot finish; the
    budget then stops it midway with [Budget.Exhausted], and the
    incumbent the evaluator recorded survives. *)

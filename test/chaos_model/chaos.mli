(** Deterministic fault injection over any cost model.

    [wrap ~seed model] prices most calls exactly like [model], but a seeded,
    input-determined fraction of calls returns garbage: NaN, [+inf], zero,
    or a cost computed from overflowed cardinalities.  Because each fault is
    a pure function of the seed and the call's inputs — never of call order
    — chaos runs are reproducible, parallelism-independent, and safe to
    checkpoint.

    This is the adversary that the overflow-safe clamping in
    {!Plan_cost.clamp_cost} / {!Plan_cost.clamp_card} is proven against:
    the chaos test suite runs all nine methods under a wrapped model and
    requires every run to terminate with a valid plan. *)

open Ljqo_cost

type fault = Nan_cost | Inf_cost | Zero_cost | Overflow_card

val fault_name : fault -> string

val default_rate : float
(** 0.05 — one call in twenty is faulted. *)

val wrap : ?rate:float -> seed:int -> Cost_model.t -> Cost_model.t
(** [rate] is the per-call fault probability in [[0, 1]]; faults are spread
    uniformly over the four {!fault} constructors. *)

exception Injected of string
(** Raised by {!wrap_raising}'s faulted calls; the payload is the
    {!fault_name} drawn. *)

val wrap_raising : ?rate:float -> seed:int -> Cost_model.t -> Cost_model.t
(** Like {!wrap}, but a faulted join costing {e raises} {!Injected} instead
    of returning garbage — the crash-mid-request adversary for the serving
    path's per-request guard.  Deterministic in the same sense as {!wrap},
    and salted differently, so under one seed the two modes fault
    independent call subsets.  Scan and output costings are passed through
    unfaulted. *)

val decide : seed:int -> rate:float -> float list -> fault option
(** The underlying seeded decision function, exposed for tests: hashes the
    given floats and returns the fault (if any) a call with those inputs
    receives. *)

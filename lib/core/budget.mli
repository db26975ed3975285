(** Deterministic optimization-time budgets.

    The paper limits each optimization run to CPU time proportional to [N^2]
    (e.g. [9 N^2] seconds on a 4-MIPS workstation).  For reproducibility we
    measure "time" in *ticks*: one tick is one elementary cost-estimation
    step (one join-step size/cost computation, or one heuristic candidate
    scored).  All nine methods spend essentially all their time in such
    steps, so tick budgets preserve the paper's relative time accounting
    while being hardware-independent and deterministic.

    A time limit of [t * N^2] paper-seconds maps to
    [t * N^2 * ticks_per_unit] ticks; [default_ticks_per_unit] is calibrated
    so that the paper's qualitative behaviours (convergence flattening near
    [9 N^2], the AGI/IAI crossover) appear at the same [t] values.

    Budgets support *checkpoints*: tick counts at which a callback fires, used
    to snapshot the incumbent best cost so a single run yields the whole
    quality-vs-time curve. *)

exception Exhausted
(** Raised by [charge] when the budget is used up. *)

exception Deadline_exceeded
(** Raised by [charge] when the optional wall-clock deadline has passed.
    Unlike tick exhaustion this is a defensive abort: it exists so a
    pathological run can never hang a suite, and the harness records it as a
    timeout rather than a normal completion. *)

type t

val create :
  ?checkpoints:int list ->
  ?deadline:float ->
  ?clock:(unit -> float) ->
  ticks:int ->
  unit ->
  t
(** [ticks <= 0] means unlimited. Checkpoints beyond [ticks] are ignored.

    [deadline] is a wall-clock allowance in seconds, measured from [create];
    when it elapses, [charge] raises [Deadline_exceeded].  The clock is read
    on the {e first} charge (so an already-expired deadline — zero, negative,
    or elapsed during setup — aborts immediately rather than up to a stride
    later) and then only every {!deadline_check_stride} charges, so the
    deterministic tick accounting stays essentially syscall-free on the hot
    path.  [clock] (default [Unix.gettimeofday]) exists for deterministic
    tests. *)

val unlimited : unit -> t

val set_checkpoint_callback : t -> (int -> unit) -> unit
(** The callback receives the checkpoint tick value; it fires the first time
    the used-tick count reaches it (multiple crossed checkpoints fire in
    order). *)

val charge : t -> int -> unit
(** Add ticks to the used count; fires crossed checkpoints, then checks the
    wall-clock deadline (raising [Deadline_exceeded]) and the tick limit
    (raising [Exhausted]).  Once dead, every further [charge] raises the
    exception that killed the budget. *)

val used : t -> int

val limit : t -> int option

val remaining : t -> int option
(** [None] when unlimited; otherwise [max 0 (limit - used)]. *)

val exhausted : t -> bool

val deadline_hit : t -> bool
(** Whether the budget died from its wall-clock deadline (as opposed to tick
    exhaustion). *)

val deadline_check_stride : int
(** Number of charges between wall-clock reads (after the first charge,
    which always checks when a deadline is set). *)

val default_ticks_per_unit : int

val max_ticks : int
(** 2{^53}, the largest budget {!ticks_for_limit} returns.  A float holds
    every integer up to it exactly, so a budget scaled by a fraction
    ([int_of_float (f *. float_of_int ticks)]) cannot wrap. *)

val ticks_for_limit : ?ticks_per_unit:int -> t_factor:float -> n_joins:int -> unit -> int
(** Ticks corresponding to the paper's time limit [t_factor * N^2]: at least
    1, and saturating at {!max_ticks} when the product is larger (an
    infinite [t_factor] included) instead of wrapping past [max_int]. *)

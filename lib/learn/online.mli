(** Online learning state: a growing sample log plus epoch-pinned models.

    Served requests append one slot each — [Some sample] on success, [None]
    for a crashed/deadlined request, so the slot sequence stays dense — and
    the router model is refreshed at deterministic request-count epochs:
    the model used for request [id] is the one trained on the samples of
    requests [0 .. boundary-1] where [boundary = (id / epoch) * epoch].
    That pinning is what makes adaptive routing bit-identical across worker
    counts: which model a request sees depends only on its id, never on
    scheduling.

    Thread-safe.  {!await} blocks until every slot below the caller's
    boundary is filled; with the server's dense FIFO ids this cannot
    deadlock — the worker holding the smallest in-flight id needs only
    already-completed slots (its boundary is at or below its own id), so it
    always proceeds and eventually fills the slots the others wait on.
    Training at a boundary happens exactly once (first awaiting worker
    trains under the lock; others reuse the result), so
    [learn.model_refreshes] is worker-count-independent too. *)

type t

val create : ?epoch:int -> ?initial:Model.t -> unit -> t
(** [epoch] (default 32, must be positive) is the refresh period in
    requests.  [initial] seeds the rotation: requests before the first
    trained boundary route through it (absent an initial model they fall
    back to the portfolio). *)

val epoch_size : t -> int

val model : t -> Model.t option
(** The newest model: the highest trained boundary's, else [initial].  The
    batch service snapshots this at batch start; the server must use
    {!await} instead. *)

val record : t -> Dataset.sample option -> int
(** Append at the frontier and return the slot id just filled.  When the
    fill crosses an epoch boundary the model for that boundary is trained
    inline — this is the batch path's deterministic refresh (the commit
    pass records in request order).  Bumps [learn.samples_recorded] per
    [Some]. *)

val record_at : t -> id:int -> Dataset.sample option -> unit
(** Fill slot [id] (the server path, where ids are assigned at admission).
    First write wins; a second write to the same slot is ignored.  Raises
    [Invalid_argument] on a negative id. *)

val await : t -> id:int -> Model.t option
(** The model pinned for request [id]: blocks until all slots below
    [(id / epoch) * epoch] are filled, trains that boundary if nobody has
    yet, and returns its model (a boundary whose samples train nothing
    keeps the previous boundary's model). *)

val recorded : t -> int
(** Slots filled so far (diagnostic). *)

(** Bounded multi-producer / multi-consumer FIFO queue — the server's
    backpressure point.

    Producers {!try_push} and are told immediately when the queue is full or
    closed (they never block: admission control turns [Full] into a shed
    decision, not a stall).  Consumers {!pop} and block until an item
    arrives or the queue is closed {e and} empty, so closing is the drain
    signal: workers finish everything already accepted, then exit their
    loop when [pop] returns [None].

    Items come out in exactly the order they went in (one mutex, one
    [Queue.t]), which is what makes a 1-worker server a serialized schedule
    for the determinism oracle.  {!max_depth} records the high-water mark so
    tests can assert the depth bound actually held under load. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

type push_result = Pushed | Full | Closed

val try_push : 'a t -> 'a -> push_result
(** Never blocks. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available ([Some]) or the queue is closed and
    empty ([None]). *)

val close : 'a t -> unit
(** Stop accepting pushes and wake every blocked consumer.  Items already
    queued are still handed out; idempotent. *)

val length : 'a t -> int

val max_depth : 'a t -> int
(** Highest [length] ever observed after a push; never exceeds
    [capacity]. *)

(** Run isolation: exception capture around per-query experiment runs.

    [run] executes one unit of work and reifies its outcome.  A crash is
    captured with the exception text and (when [Printexc.record_backtrace]
    is on, e.g. via [OCAMLRUNPARAM=b] or the bench entry point) its
    backtrace; a [Budget.Deadline_exceeded] escape is recorded as a timeout.
    The driver maps guarded runs over the workload so one pathological query
    costs exactly one result slot, never the experiment. *)

type failure = { query_id : int; exn : string; backtrace : string }

type 'a t =
  | Completed of 'a
  | Crashed of failure
  | Timed_out of { query_id : int }

val run : query_id:int -> (unit -> 'a) -> 'a t
(** Never raises (short of asynchronous exceptions re-raised by the captured
    function's cleanup). *)

val pp_failure : Format.formatter -> failure -> unit

val describe : 'a t -> string

(** Multicore work distribution for the experiment harness (OCaml 5
    domains).

    Experiments are embarrassingly parallel across queries — each query's
    runs are pure functions of their seeds — and results are folded in
    input order, so output is bit-identical whatever the job count.

    The default is sequential; enable parallelism with [set_jobs], the
    bench's [--jobs] flag, or the [LJQO_JOBS] environment variable.

    Batches run on a process-wide pool: the calling domain works on its own
    batch, helped by worker domains that are spawned on first need — at
    most [Domain.recommended_domain_count () - 1] of them, and no more than
    [jobs - 1] — and then stay parked for the life of the process.  One
    batch runs on the pool at a time: a call made while one is in flight
    (nested in an item, or from another domain) runs inline on its calling
    domain.  A parked worker does not delay process exit, but it does take
    part in every stop-the-world minor collection. *)

val set_jobs : int -> unit
(** Override the job count for subsequent [map_array] calls (floored
    at 1). *)

val default_jobs : unit -> int
(** The configured job count: [set_jobs] value, else [LJQO_JOBS], else 1.
    An unparsable or non-positive [LJQO_JOBS] logs a warning (once) and falls
    back to sequential. *)

type 'a slot =
  | Done of 'a
  | Raised of { exn : exn; backtrace : Printexc.raw_backtrace }
      (** the item's function raised; the backtrace is from the raise site *)

val map_array_result : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b slot array
(** Fallible [Array.map]: elements are processed by up to [jobs] domains
    pulling from a shared counter, and each element's outcome — value or
    exception — is recorded in its own slot.  One crashing element never
    affects the others, and every element has finished before this
    returns. *)

val map_array : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], with elements processed by up to [jobs] domains
    pulling from a shared counter.  If any element raised, the first failure
    (in input order) is re-raised with its original backtrace — but only
    after every element has finished, so no work of the call outlives it. *)

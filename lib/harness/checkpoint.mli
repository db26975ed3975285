(** Crash-safe persistence of completed per-query experiment results.

    A checkpoint file is line-oriented text: a header binding it to a
    configuration fingerprint, then one [R]-record per completed query
    holding that query's per-method/per-tfactor result matrix.  Records are
    appended and flushed as each query completes (and on SIGINT / process
    exit), so interrupting an experiment at any instant leaves a loadable
    file; resuming skips the stored queries and reproduces the
    uninterrupted outcome bit for bit.

    Line schema (v2); each record is a {!Ljqo_obs.Sealed} line, whose seal
    and tokens are specified there:

    {v
    # ljqo-checkpoint v2 <fingerprint>
    R <index> <timeouts> <rows> <cols> <float>^(rows*cols)
    v}

    Unlike a sealed document, the file is a journal: a torn or corrupt
    record is skipped (with a warning) and recomputed, never resumed
    from. *)

type request = { dir : string; resume : bool }
(** What the CLI hands to the driver: where checkpoint files live and
    whether completed work found there should be reused. *)

type record = {
  timeouts : int;  (** method runs aborted at the deadline within this query *)
  out : float array array;  (** per-method, per-tfactor averaged scaled costs *)
}

type t

exception Unwritable of string
(** Raised by {!open_store} when the file cannot be written; the payload is
    the [Sys_error] message, which names the path. *)

val open_store : path:string -> fingerprint:string -> resume:bool -> unit -> t
(** Creates parent directories as needed, and raises {!Unwritable} before
    reading anything if the file cannot be written.  With [resume], an
    existing file whose header matches [fingerprint] has its records loaded
    (malformed — e.g. torn — lines are skipped with a warning) and is
    appended to; otherwise the file is started fresh.  Also installs (once)
    a SIGINT handler and [at_exit] hook flushing all open stores. *)

val completed : t -> int -> record option
(** The stored record for a query index, if it was loaded at [open_store]. *)

val record : t -> index:int -> record -> unit
(** Append one completed query's record and flush.  Thread-safe. *)

val close : t -> unit

(** {1 Wire format} — exposed for corruption tests. *)

val record_line : int -> record -> string
(** The exact line (newline included) written for a record. *)

val parse_record : string -> (int * record) option
(** Parse one record line; [None] on any malformation, including a bad
    seal or a non-canonical token. *)

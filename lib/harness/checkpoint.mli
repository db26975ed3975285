(** Crash-safe persistence of completed per-query experiment results.

    A checkpoint file is line-oriented text: a header binding it to a
    configuration fingerprint, then one [R]-record per completed query
    holding that query's per-method/per-tfactor result matrix as IEEE-754
    bit patterns in hex.  Records are appended and flushed as each query
    completes (and on SIGINT / process exit), so interrupting an experiment
    at any instant leaves a loadable file; resuming skips the stored queries
    and reproduces the uninterrupted outcome bit for bit.

    File format (v2 — each record line ends with the MD5 of everything
    before the final space, so byte-level corruption is rejected rather
    than resumed from):

    {v
    # ljqo-checkpoint v2 <fingerprint>
    R <index> <timeouts> <rows> <cols> <hex64> ... <hex64> <md5>
    v}

    Tokens are strictly canonical: decimals as [%d] prints them and bare
    lowercase hex as [%Lx] prints it.  Leniencies of [int_of_string]
    (underscores, [0x]/[0o]/[0b] prefixes, signs) are rejected, so a
    garbled line can never parse into a plausible bogus record. *)

type request = { dir : string; resume : bool }
(** What the CLI hands to the driver: where checkpoint files live and
    whether completed work found there should be reused. *)

type record = {
  timeouts : int;  (** method runs aborted at the deadline within this query *)
  out : float array array;  (** per-method, per-tfactor averaged scaled costs *)
}

type t

val open_store : path:string -> fingerprint:string -> resume:bool -> unit -> t
(** Creates parent directories as needed.  With [resume], an existing file
    whose header matches [fingerprint] has its records loaded (malformed —
    e.g. torn — lines are skipped with a warning) and is appended to;
    otherwise the file is started fresh.  Also installs (once) a SIGINT
    handler and [at_exit] hook flushing all open stores. *)

val path : t -> string

val completed : t -> int -> record option
(** The stored record for a query index, if it was loaded at [open_store]. *)

val record : t -> index:int -> record -> unit
(** Append one completed query's record and flush.  Thread-safe. *)

val close : t -> unit

val flush_all : unit -> unit
(** Flush every open store (what the SIGINT handler runs). *)

(** {1 Wire format} — exposed for corruption tests. *)

val record_line : int -> record -> string
(** The exact line (newline included) written for a record. *)

val parse_record : string -> (int * record) option
(** Parse one record line; [None] on any malformation, including a
    checksum mismatch or a non-canonical token. *)

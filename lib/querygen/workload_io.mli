(** Persisting workload suites to disk.

    A workload is saved as a directory of QDL files plus a [MANIFEST] text
    file listing, per query: file name, N (join count of the spanning
    construction), and the per-query stream seed.  Saved workloads make
    experiment inputs shareable and allow running the harness against
    externally authored query sets.

    Manifest format (one query per line, [#] comments):

    {v
    # ljqo workload: <spec name>
    q0001.qdl 10 10000003
    q0002.qdl 10 10000004
    v} *)

val save : Workload.t -> dir:string -> unit
(** Creates [dir] if needed; overwrites existing files of the same names. *)

type loaded_entry = {
  file : string;
  n_joins : int;
  seed : int;
  query : Ljqo_catalog.Query.t;
}

type error = {
  file : string;  (** the manifest or QDL file at fault *)
  line : int;  (** 1-based; 0 when no line applies (e.g. missing file) *)
  reason : string;
}
(** Structured description of why a workload failed to load — a truncated or
    corrupt manifest, a malformed QDL file, an unreadable path — so a suite
    runner can report the exact file and line instead of dying on a bare
    parser exception. *)

val error_to_string : error -> string
(** ["file:line: reason"]. *)

val load_result : dir:string -> (loaded_entry list, error) result
(** Parses the manifest and every referenced QDL file; never raises on
    malformed input. *)

val manifest_path : string -> string
(** [dir ^ "/MANIFEST"]. *)

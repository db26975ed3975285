(** Trace exporters: parse the JSONL stream written by {!Obs} and render it
    as Chrome trace_event JSON (Perfetto / chrome://tracing), folded-stack
    flamegraph text (flamegraph.pl / speedscope), or a terminal summary.
    All three are deterministic functions of the event list. *)

type event = {
  ev : string;
  ts : float;  (** seconds since the sink opened *)
  dom : int;
  fields : (string * Jsonv.t) list;  (** payload minus [ev]/[ts]/[dom] *)
}

val events_of_string : string -> (event list, int * string) result
(** Parse a whole JSONL trace; [Error (lineno, msg)] on the first bad
    line. *)

val events_of_file : string -> (event list, string) result
(** Read and parse a trace file.  The error is ["PATH: reason"] when the
    file cannot be read and ["PATH:LINE: message"] on a bad line. *)

val chrome : event list -> string
(** Chrome trace_event JSON: spans as complete ("X") slices (start derived
    as [ts - dur]), phases as "B"/"E" pairs, other events as instants;
    [tid] is the domain id. *)

val flame : event list -> string
(** Folded stacks, one line per distinct [dom<N>;root;...;leaf] span path
    with summed self time in nanoseconds; sorted, hence deterministic. *)

val summary : event list -> string
(** Human-readable digest: event counts by name and a per-path span table
    sorted by total self time.  When the trace carries serving-layer events,
    two more sections appear: tail latency (p50/p99/p999/max over every
    event with a numeric [latency_ns] field, i.e. the server's
    ["service.request"] events) and load shedding / drain (shed counts by
    reason from ["service.shed"] events, completions during drain from the
    [drained] flag). *)

(** Search-loop observability: process-wide counters, histograms, hierarchical
    spans, per-phase tick/time attribution, incumbent trajectories, and a
    sampled JSONL trace-event sink.

    The paper's methodology is trajectories — scaled cost as a function of
    the time limit — yet the optimizer otherwise runs as a black box.  This
    module makes the search loop visible without perturbing it: counters,
    histograms, spans and trace events are pure observations (no RNG draws,
    no tick charges), so for a fixed seed the optimizer's plans and costs are
    bit-identical whether instrumentation is on or off.

    Everything is disabled by default.  Each instrumentation point is guarded
    by one boolean load, so the hot paths pay a branch and nothing else when
    observability is off ({!set_enabled}/{!set_spans}/{!trace_to} are
    expected before a run starts, from the main domain, not mid-flight).
    When enabled, counters and histogram cells are atomics: totals are
    exact — and, because the work each (query, method, replicate) run
    performs is deterministic, identical — for any job count.

    Tick attribution uses a domain-local current-phase mark maintained by
    {!with_phase}: {!charged} adds to the innermost enclosing phase, so
    "where do ticks go inside II / SA / the heuristics" has a deterministic
    answer per run. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
(** Turn counter/histogram/timer collection on or off.  Flip only between
    runs. *)

val reset : unit -> unit
(** Zero all counters, histograms, phase accumulators, trajectories and the
    span ring (trace sampling state too).  Call only when no instrumented
    run is in flight. *)

(** {1 Counters} *)

type counter =
  | Cost_evals  (** full plan costings (evaluator + search-state init) *)
  | Recost_steps  (** incremental join-step recostings *)
  | Incumbents
      (** times the best-seen plan improved, counted by {!incumbent}: a
          run's own improvements, not a {!sub_run}'s *)
  | Starts  (** II start states and SA anneals begun *)
  | Sa_chains  (** SA inner chains completed (= temperature steps) *)
  | Budget_charges  (** calls to [Budget.charge] *)
  | Budget_ticks  (** total ticks charged *)
  | Deadline_reads  (** wall-clock reads for deadline checks *)
  | Dp_subsets  (** DP connected subsets expanded *)
  | Queries_completed
  | Queries_crashed
  | Queries_timed_out
  | Run_timeouts  (** method runs cut at the wall-clock deadline *)
  | Ckpt_records_loaded  (** checkpoint records accepted on resume *)
  | Ckpt_lines_rejected  (** checkpoint lines rejected as torn/corrupt *)
  | Cache_hits  (** plan-cache exact-key hits *)
  | Cache_coarse_hits  (** plan-cache coarse-key (similar-query) hits *)
  | Cache_misses  (** plan-cache lookups that found nothing *)
  | Cache_insertions  (** plan-cache entries admitted or replaced *)
  | Cache_evictions  (** plan-cache entries evicted by the LRU policy *)
  | Service_dedups  (** in-flight requests deduplicated against a batch twin *)
  | Warm_starts_used  (** method runs that began from a supplied warm plan *)
  | Warm_start_wins
      (** served requests whose warm/cached plan was never beaten *)
  | Service_accepted  (** server requests admitted past admission control *)
  | Service_shed  (** server requests rejected by admission control *)
  | Service_drained
      (** accepted requests completed after a drain began (graceful drain) *)
  | Service_failed  (** server requests whose optimization crashed mid-request *)
  | Service_timeouts
      (** server requests cut by their per-request wall-clock deadline *)
  | Neighbors_evaluated
      (** neighbor states costed by the fused kernel ({!Ljqo_core.Neighborhood}) *)
  | Portfolio_rounds  (** portfolio exchange rounds completed (all replicates) *)
  | Portfolio_exchanges
      (** replicate incumbents folded into the parent evaluator at barriers *)
  | Exec_probe_comparisons
      (** hash-probe candidate comparisons performed by {!Ljqo_exec.Executor} *)
  | Feedback_plans_executed  (** plans executed by the feedback pipeline *)
  | Feedback_result_too_large
      (** feedback executions truncated by the executor's row cap *)

val bump : counter -> unit
(** Add one.  A no-op (one boolean load) when disabled. *)

val add : counter -> int -> unit

val charged : int -> unit
(** One [Budget.charge] of [k] ticks: bumps [Budget_charges], adds [k] to
    [Budget_ticks] and to the current phase's tick account. *)

(** {1 Histograms}

    Log-bucketed (see {!Hist}) distributions over a fixed registry.  The
    tick-domain histograms ([Move_delta], [Request_ticks]) and the
    execution-feedback family ([Feedback_qerror_*], [Feedback_cost_ratio] —
    pure functions of seeded data, recorded in milli-units) are
    deterministic per seeded run and are part of {!deterministic_view}; the
    wall-clock ones ([Span_ns], [Service_latency_ns], [Cache_lookup_ns],
    [Queue_wait_ns]) are reported in snapshots only. *)

type hist =
  | Move_delta  (** |scaled-cost delta| of each attempted move (ticks domain) *)
  | Request_ticks  (** optimizer ticks charged per served request *)
  | Span_ns  (** span wall durations *)
  | Service_latency_ns
      (** per-request serving wall latency (in the server: full sojourn,
          queue wait included) *)
  | Cache_lookup_ns  (** plan-cache lookup wall time *)
  | Queue_wait_ns  (** server queue wait, submission to worker pickup *)
  | Feedback_qerror_d1
      (** q-error at join depth 1, in milli-q-error (1000 = exact) *)
  | Feedback_qerror_d2  (** q-error at join depth 2 (milli) *)
  | Feedback_qerror_d3  (** q-error at join depth 3 (milli) *)
  | Feedback_qerror_d4plus  (** q-error at join depths >= 4 (milli) *)
  | Feedback_cost_ratio
      (** estimated-vs-actual-cost q-ratio per executed plan (milli) *)

val hist_record : hist -> int -> unit
(** Record one value (negatives clamp to 0).  A no-op when disabled. *)

val hist_record_f : hist -> float -> unit
(** Record a float measurement (NaN/negatives as 0, overlarge saturates). *)

val time : hist -> (unit -> 'a) -> 'a
(** [time h f] runs [f] and records its wall duration in nanoseconds into
    [h]; meant for the wall-clock histograms.  Just [f ()] when disabled. *)

(** {1 Moves} *)

type move_kind = Adjacent_swap | Swap | Insert

type move_outcome =
  | Proposed
  | Accepted
  | Rejected  (** valid but declined (uphill in II, metropolis-rejected in SA) *)
  | Invalid  (** introduced a cross product *)

val move : move_kind -> move_outcome -> unit

(** {1 Phases} *)

type phase = Ii | Sa | Heuristic | Local | Dp | Driver | Other

val with_phase : phase -> (unit -> 'a) -> 'a
(** Run [f] with the domain-local current phase set to [p]: wall time is
    accumulated against [p], and ticks {!charged} inside go to [p]'s
    account.  Nested phases restore the enclosing one; exceptions pass
    through.  When both counters and tracing are off this is just [f ()]. *)

val current_phase : unit -> phase
(** The calling domain's current phase ([Other] outside {!with_phase}). *)

(** {1 Spans}

    Hierarchical wall-clock scopes.  Spans nest freely (within and under
    {!with_phase}); each domain keeps its own open-span stack, so the path
    of a span is the chain of enclosing spans on that domain.  Completed
    spans are appended to a bounded in-memory ring (newest win once full)
    when span capture is on, emitted to the trace sink as ["span"] events
    when tracing, and their durations feed the [Span_ns] histogram when
    counters are enabled.  When span capture, tracing and counters are all
    off, {!span} is just [f ()] behind one branch. *)

type field = I of int | F of float | S of string
(** Trace/span payload values; also used by {!trace}. *)

type span_rec = {
  span_name : string;
  path : string;  (** root-first, [';']-separated — flamegraph fold key *)
  dom : int;
  depth : int;
  t_start : float;  (** seconds since process start *)
  dur_ns : int;
  self_ns : int;  (** [dur_ns] minus time inside child spans *)
  span_fields : (string * field) list;
}

val set_spans : ?ring_capacity:int -> bool -> unit
(** Turn span capture on or off.  [ring_capacity] (default 65536) bounds the
    in-memory ring; when full, new spans overwrite the oldest.  Flip only
    between runs. *)

val span : ?fields:(string * field) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] as a span.  Exceptions pass through and still
    close the span. *)

val spans : unit -> span_rec list
(** Contents of the span ring, oldest first. *)

(** {1 Trajectories}

    Incumbent (ticks-charged, scaled-cost) samples per labelled run — the
    paper's cost-versus-budget curves, captured live.  Purely observational
    and tick-domain, hence part of {!deterministic_view}. *)

val with_run : string -> (unit -> 'a) -> 'a
(** Run [f] with the domain-local run label set (e.g. ["q3.sa.r1"]); nested
    labels restore the enclosing one.  A label identifies one sequential
    (query, method, replicate) run, so its sample order is deterministic. *)

val trajectory_point : ticks:int -> cost:float -> unit
(** Record one incumbent sample against the current run label.  A no-op when
    disabled or outside {!with_run}. *)

val incumbent : ticks:int -> cost:float -> unit
(** The run's best-seen plan improved to [cost] after [ticks]: bump
    [Incumbents] and record a {!trajectory_point}.  A no-op inside a
    {!sub_run}, so the counter counts what the trajectory holds. *)

val trajectories : unit -> (string * (int * float) list) list
(** All recorded trajectories, sorted by label, samples in recording
    order. *)

val sub_run : phase -> (unit -> 'a) -> 'a
(** [sub_run p f] runs [f] as a private part of the caller's run, on
    whichever domain runs it: ticks {!charged} inside [f] go to [p]'s account
    (unless a nested {!with_phase} says otherwise), and [f] records no
    trajectory samples and counts no {!incumbent}.  A portfolio leg runs
    this way with the phase the portfolio was called in, so what it adds to
    a snapshot does not depend on the domain that ran it, and the run's
    trajectory and [Incumbents] count only what the run's own evaluator
    records. *)

(** {1 Trace events (JSONL)} *)

val trace_to : ?sample:int -> path:string -> unit -> unit
(** Open a JSONL trace sink.  [sample] (default 1) keeps one in every
    [sample] {!trace_sampled} events per event name; plain {!trace} events
    are always written.  Any previously open sink is closed first. *)

val trace_close : unit -> unit
(** Flush and close the sink (idempotent). *)

val tracing : unit -> bool

val trace : string -> (string * field) list -> unit
(** Emit one event unconditionally (when a sink is open).  Each line is one
    JSON object: [{"ev":name,"ts":seconds-since-open,"dom":domain-id,...}].
    Non-finite floats serialize as [null] so every line is valid JSON. *)

val trace_sampled : string -> (unit -> (string * field) list) -> unit
(** Like {!trace} but subject to the sink's sampling stride (per event
    name); the field thunk runs only for emitted events. *)

(** {1 Snapshots} *)

type move_stat = { proposed : int; accepted : int; rejected : int; invalid : int }

type phase_stat = { wall_ns : int; ticks : int }

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  moves : (string * move_stat) list;
  phases : (string * phase_stat) list;
  hists : (string * Hist.t) list;  (** the full histogram registry *)
}

val snapshot : unit -> snapshot

val deterministic_view : snapshot -> (string * int) list
(** Every deterministic cell — counters, move cells, phase {e tick}
    accounts, tick-domain histogram buckets, trajectory samples (costs as
    IEEE-754 bit patterns) — flattened to sorted (name, value) pairs;
    wall-clock values are excluded.  Two runs of the same seeded work must
    produce equal views whatever the job count and whether spans/tracing
    are on or off. *)

val metrics_schema : string
(** The snapshot schema identifier, ["ljqo-metrics/2"]. *)

val to_json : snapshot -> string
(** The metrics document ({!metrics_schema}): counters, moves, phases and
    histograms as nested objects, keys sorted, one trailing newline. *)

val write_metrics : path:string -> unit
(** Serialize {!snapshot} to [path] (creating parent directories), e.g.
    [results/METRICS_bench.json]. *)

val probe_writable : dir:bool -> string -> (unit, string) result
(** Whether an output file (or directory, with [~dir:true]) can be written,
    for both binaries to check their output flags before any work.  Missing
    parents are created; nothing else is left behind or truncated.  The
    [Error] is the [Sys_error] message. *)

(* Process-wide observability for the search loop.

   Layout: one flat array of atomics holds every deterministic cell —
   simple counters, the move kind x outcome matrix, and per-phase tick
   accounts — plus a parallel block of wall-clock accumulators.  A single
   boolean ref guards every write, so disabled instrumentation costs one
   load and a predictable branch per site.  Counter updates are atomic
   fetch-and-adds: totals are exact under any job count, and because the
   instrumented work is itself deterministic per (query, method, replicate),
   they are *identical* across job counts.

   Histograms use the same discipline: each registered histogram is a dense
   array of atomic bucket cells (see Hist for the bucket geometry), so
   recording is a couple of fetch-and-adds and snapshots are exact.  The
   tick-domain histograms (move cost deltas, per-request ticks) are
   deterministic and appear in [deterministic_view]; the wall-clock ones
   (span durations, latencies) never do.

   Spans build a per-domain tree: a domain-local stack tracks the open
   span path, completed spans go to a mutex-protected in-memory ring (for
   in-process exporters) and to the trace sink as "span" events (for
   post-mortem tooling).  Span capture is pure observation and separately
   switched, so the deterministic cells are bit-identical with spans on or
   off.

   The trace sink is a mutex-protected JSONL channel.  Events are pure
   observations (no RNG, no ticks), so tracing never changes optimizer
   results; timestamps and domain ids make individual lines
   non-deterministic, which is fine — determinism is claimed for optimizer
   outputs, counter totals, tick histograms and trajectories, not for trace
   bytes. *)

let enabled_flag = ref false

let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* Cell layout.                                                        *)

type counter =
  | Cost_evals
  | Recost_steps
  | Incumbents
  | Starts
  | Sa_chains
  | Budget_charges
  | Budget_ticks
  | Deadline_reads
  | Dp_subsets
  | Queries_completed
  | Queries_crashed
  | Queries_timed_out
  | Run_timeouts
  | Ckpt_records_loaded
  | Ckpt_lines_rejected
  | Cache_hits
  | Cache_coarse_hits
  | Cache_misses
  | Cache_insertions
  | Cache_evictions
  | Service_dedups
  | Warm_starts_used
  | Warm_start_wins
  | Service_accepted
  | Service_shed
  | Service_drained
  | Service_failed
  | Service_timeouts
  | Neighbors_evaluated
  | Portfolio_rounds
  | Portfolio_exchanges
  | Exec_probe_comparisons
  | Feedback_plans_executed
  | Feedback_result_too_large

let counter_index = function
  | Cost_evals -> 0
  | Recost_steps -> 1
  | Incumbents -> 2
  | Starts -> 3
  | Sa_chains -> 4
  | Budget_charges -> 5
  | Budget_ticks -> 6
  | Deadline_reads -> 7
  | Dp_subsets -> 8
  | Queries_completed -> 9
  | Queries_crashed -> 10
  | Queries_timed_out -> 11
  | Run_timeouts -> 12
  | Ckpt_records_loaded -> 13
  | Ckpt_lines_rejected -> 14
  | Cache_hits -> 15
  | Cache_coarse_hits -> 16
  | Cache_misses -> 17
  | Cache_insertions -> 18
  | Cache_evictions -> 19
  | Service_dedups -> 20
  | Warm_starts_used -> 21
  | Warm_start_wins -> 22
  | Service_accepted -> 23
  | Service_shed -> 24
  | Service_drained -> 25
  | Service_failed -> 26
  | Service_timeouts -> 27
  | Neighbors_evaluated -> 28
  | Portfolio_rounds -> 29
  | Portfolio_exchanges -> 30
  | Exec_probe_comparisons -> 31
  | Feedback_plans_executed -> 32
  | Feedback_result_too_large -> 33

let counter_names =
  [|
    "cost_evals";
    "recost_steps";
    "incumbents";
    "starts";
    "sa_chains";
    "budget.charges";
    "budget.ticks";
    "budget.deadline_reads";
    "dp.subsets";
    "driver.queries_completed";
    "driver.queries_crashed";
    "driver.queries_timed_out";
    "driver.run_timeouts";
    "checkpoint.records_loaded";
    "checkpoint.lines_rejected";
    "cache.hits";
    "cache.coarse_hits";
    "cache.misses";
    "cache.insertions";
    "cache.evictions";
    "service.dedups";
    "warm_starts.used";
    "warm_starts.wins";
    "service.accepted";
    "service.shed";
    "service.drained";
    "service.failed";
    "service.timed_out";
    "search.neighbors_evaluated";
    "portfolio.rounds";
    "portfolio.exchanges";
    "exec.probe_comparisons";
    "feedback.plans_executed";
    "feedback.result_too_large";
  |]

let n_counters = Array.length counter_names

type move_kind = Adjacent_swap | Swap | Insert

type move_outcome = Proposed | Accepted | Rejected | Invalid

let kind_index = function Adjacent_swap -> 0 | Swap -> 1 | Insert -> 2

let kind_names = [| "adjacent_swap"; "swap"; "insert" |]

let outcome_index = function
  | Proposed -> 0
  | Accepted -> 1
  | Rejected -> 2
  | Invalid -> 3

let outcome_names = [| "proposed"; "accepted"; "rejected"; "invalid" |]

let n_kinds = Array.length kind_names

let n_outcomes = Array.length outcome_names

type phase = Ii | Sa | Heuristic | Local | Dp | Driver | Other

let phase_index = function
  | Ii -> 0
  | Sa -> 1
  | Heuristic -> 2
  | Local -> 3
  | Dp -> 4
  | Driver -> 5
  | Other -> 6

let phases = [| Ii; Sa; Heuristic; Local; Dp; Driver; Other |]

let phase_names = [| "ii"; "sa"; "heuristic"; "local"; "dp"; "driver"; "other" |]

let n_phases = Array.length phase_names

let moves_base = n_counters

let phase_ticks_base = moves_base + (n_kinds * n_outcomes)

let n_cells = phase_ticks_base + n_phases

let cells = Array.init n_cells (fun _ -> Atomic.make 0)

let phase_wall = Array.init n_phases (fun _ -> Atomic.make 0)

let bump_cell i k = ignore (Atomic.fetch_and_add cells.(i) k)

let bump c = if !enabled_flag then bump_cell (counter_index c) 1

let add c k = if !enabled_flag then bump_cell (counter_index c) k

let move kind outcome =
  if !enabled_flag then
    bump_cell (moves_base + (kind_index kind * n_outcomes) + outcome_index outcome) 1

(* ------------------------------------------------------------------ *)
(* Histograms.                                                         *)

type hist =
  | Move_delta
  | Request_ticks
  | Span_ns
  | Service_latency_ns
  | Cache_lookup_ns
  | Queue_wait_ns
  | Feedback_qerror_d1
  | Feedback_qerror_d2
  | Feedback_qerror_d3
  | Feedback_qerror_d4plus
  | Feedback_cost_ratio

let hist_index = function
  | Move_delta -> 0
  | Request_ticks -> 1
  | Span_ns -> 2
  | Service_latency_ns -> 3
  | Cache_lookup_ns -> 4
  | Queue_wait_ns -> 5
  | Feedback_qerror_d1 -> 6
  | Feedback_qerror_d2 -> 7
  | Feedback_qerror_d3 -> 8
  | Feedback_qerror_d4plus -> 9
  | Feedback_cost_ratio -> 10

let hist_names =
  [|
    "move.cost_delta";
    "service.request_ticks";
    "span.duration_ns";
    "service.latency_ns";
    "cache.lookup_ns";
    "service.queue_wait_ns";
    "feedback.qerror.d1";
    "feedback.qerror.d2";
    "feedback.qerror.d3";
    "feedback.qerror.d4plus";
    "feedback.cost_ratio";
  |]

(* Tick-domain histograms are deterministic per seeded run and belong in
   [deterministic_view]; wall-clock ones never do.  The feedback family is
   deterministic too: execution over seeded relation data is a pure function
   of (query, plan), so milli-q-error samples are identical across job
   counts. *)
let hist_deterministic =
  [| true; true; false; false; false; false; true; true; true; true; true |]

let n_hists = Array.length hist_names

let hist_cells =
  Array.init n_hists (fun _ -> Array.init Hist.n_buckets (fun _ -> Atomic.make 0))

let hist_count = Array.init n_hists (fun _ -> Atomic.make 0)

let hist_sum = Array.init n_hists (fun _ -> Atomic.make 0)

let hist_record_raw i v =
  ignore (Atomic.fetch_and_add hist_cells.(i).(Hist.index v) 1);
  ignore (Atomic.fetch_and_add hist_count.(i) 1);
  ignore (Atomic.fetch_and_add hist_sum.(i) v)

let hist_record h v =
  if !enabled_flag then hist_record_raw (hist_index h) (if v < 0 then 0 else v)

let hist_record_f h v =
  if !enabled_flag then begin
    let cap = float_of_int (max_int / 2) in
    let q =
      if Float.is_nan v || v <= 0.0 then 0
      else if v >= cap then max_int / 2
      else int_of_float v
    in
    hist_record_raw (hist_index h) q
  end

let time h f =
  if not !enabled_flag then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        hist_record_f h ((Unix.gettimeofday () -. t0) *. 1e9))
      f
  end

let hist_snapshot i =
  Hist.of_cells
    ~counts:(Array.map Atomic.get hist_cells.(i))
    ~count:(Atomic.get hist_count.(i))
    ~sum:(Atomic.get hist_sum.(i))

(* ------------------------------------------------------------------ *)
(* Phase attribution.                                                  *)

let phase_key = Domain.DLS.new_key (fun () -> phase_index Other)

let charged k =
  if !enabled_flag then begin
    bump_cell (counter_index Budget_charges) 1;
    bump_cell (counter_index Budget_ticks) k;
    bump_cell (phase_ticks_base + Domain.DLS.get phase_key) k
  end

let current_phase () = phases.(Domain.DLS.get phase_key)

let now () = Unix.gettimeofday ()

(* Zero of the in-process span timeline (spans can be captured to the ring
   with no sink open). *)
let proc_t0 = now ()

(* ------------------------------------------------------------------ *)
(* Trajectories: incumbent (ticks, cost) samples per labelled run.      *)

(* The run a domain works for: a labelled one records trajectory samples;
   a private part of another run ([sub_run]) records neither samples nor
   incumbents. *)
type run = Unlabelled | Labelled of string | Private

let run_key : run Domain.DLS.key = Domain.DLS.new_key (fun () -> Unlabelled)

let traj_mutex = Mutex.create ()

(* label -> reversed sample list.  A labelled run executes sequentially on
   one domain, so per-label order is the run's own chronological order;
   distinct runs have distinct labels, so totals are independent of how runs
   are scheduled over domains. *)
let traj_table : (string, (int * float) list ref) Hashtbl.t = Hashtbl.create 64

let with_run label f =
  let prev = Domain.DLS.get run_key in
  Domain.DLS.set run_key (Labelled label);
  Fun.protect ~finally:(fun () -> Domain.DLS.set run_key prev) f

let trajectory_point ~ticks ~cost =
  if !enabled_flag then
    match Domain.DLS.get run_key with
    | Unlabelled | Private -> ()
    | Labelled label ->
      Mutex.lock traj_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock traj_mutex)
        (fun () ->
          let r =
            match Hashtbl.find_opt traj_table label with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add traj_table label r;
              r
          in
          r := (ticks, cost) :: !r)

let incumbent ~ticks ~cost =
  if !enabled_flag then
    match Domain.DLS.get run_key with
    | Private -> ()
    | Unlabelled | Labelled _ ->
      bump Incumbents;
      trajectory_point ~ticks ~cost

let trajectories () =
  Mutex.lock traj_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock traj_mutex)
    (fun () ->
      Hashtbl.fold (fun label r acc -> (label, List.rev !r) :: acc) traj_table []
      |> List.sort compare)

let sub_run p f =
  let phase = Domain.DLS.get phase_key and run = Domain.DLS.get run_key in
  Domain.DLS.set phase_key (phase_index p);
  Domain.DLS.set run_key Private;
  Fun.protect f ~finally:(fun () ->
      Domain.DLS.set phase_key phase;
      Domain.DLS.set run_key run)

(* ------------------------------------------------------------------ *)
(* Trace sink.                                                         *)

type field = I of int | F of float | S of string

type sink = {
  oc : out_channel;
  mutex : Mutex.t;
  sample : int;
  sample_counts : (string, int ref) Hashtbl.t;
  t0 : float;
}

let sink : sink option ref = ref None

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let probe_writable ~dir path =
  match
    mkdir_p (Filename.dirname path);
    match (dir, Sys.file_exists path) with
    | false, false ->
      close_out (open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 path);
      Sys.remove path
    | false, true -> close_out (open_out_gen [ Open_wronly; Open_append ] 0 path)
    | true, false ->
      Sys.mkdir path 0o755;
      Sys.rmdir path
    | true, true ->
      if not (Sys.is_directory path) then
        raise (Sys_error (path ^ ": Not a directory"));
      Sys.remove (Filename.temp_file ~temp_dir:path "ljqo" ".probe")
  with
  | () -> Ok ()
  | exception Sys_error e -> Error e

let trace_close () =
  match !sink with
  | None -> ()
  | Some s ->
    sink := None;
    (try flush s.oc with Sys_error _ -> ());
    close_out_noerr s.oc

let trace_to ?(sample = 1) ~path () =
  trace_close ();
  if sample < 1 then invalid_arg "Obs.trace_to: sample must be >= 1";
  mkdir_p (Filename.dirname path);
  sink :=
    Some
      {
        oc = open_out path;
        mutex = Mutex.create ();
        sample;
        sample_counts = Hashtbl.create 16;
        t0 = now ();
      }

let tracing () = !sink <> None

let add_field b (name, v) =
  Buffer.add_string b ",\"";
  Jsonv.escape b name;
  Buffer.add_string b "\":";
  match v with
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> Jsonv.write_float b f
  | S s -> Jsonv.write_string b s

let emit s name fields =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"ev\":\"";
  Jsonv.escape b name;
  Buffer.add_string b "\",\"ts\":";
  Jsonv.write_float b (now () -. s.t0);
  Buffer.add_string b ",\"dom\":";
  Buffer.add_string b (string_of_int (Domain.self () :> int));
  List.iter (add_field b) fields;
  Buffer.add_string b "}\n";
  output_string s.oc (Buffer.contents b);
  flush s.oc

let trace name fields =
  match !sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.mutex)
      (fun () -> emit s name fields)

let trace_sampled name make_fields =
  match !sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.mutex)
      (fun () ->
        let count =
          match Hashtbl.find_opt s.sample_counts name with
          | Some r -> r
          | None ->
            let r = ref 0 in
            Hashtbl.add s.sample_counts name r;
            r
        in
        let keep = !count mod s.sample = 0 in
        incr count;
        if keep then emit s name (make_fields ()))

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)

type span_rec = {
  span_name : string;
  path : string;  (* root-first, ';'-separated *)
  dom : int;
  depth : int;
  t_start : float;  (* seconds since process start *)
  dur_ns : int;
  self_ns : int;
  span_fields : (string * field) list;
}

let spans_flag = ref false

let span_ring_mutex = Mutex.create ()

let span_ring : span_rec option array ref = ref [||]

let span_ring_next = ref 0 (* total completed spans pushed, monotone *)

let default_ring_capacity = 65_536

let set_spans ?(ring_capacity = default_ring_capacity) on =
  if ring_capacity < 1 then
    invalid_arg "Obs.set_spans: ring_capacity must be >= 1";
  Mutex.lock span_ring_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock span_ring_mutex)
    (fun () ->
      spans_flag := on;
      if on && Array.length !span_ring <> ring_capacity then begin
        span_ring := Array.make ring_capacity None;
        span_ring_next := 0
      end)

let ring_push rec_ =
  Mutex.lock span_ring_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock span_ring_mutex)
    (fun () ->
      let ring = !span_ring in
      let cap = Array.length ring in
      if cap > 0 then begin
        ring.(!span_ring_next mod cap) <- Some rec_;
        incr span_ring_next
      end)

let spans () =
  Mutex.lock span_ring_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock span_ring_mutex)
    (fun () ->
      let ring = !span_ring in
      let cap = Array.length ring in
      if cap = 0 then []
      else begin
        let total = !span_ring_next in
        let first = if total > cap then total - cap else 0 in
        let out = ref [] in
        for k = total - 1 downto first do
          match ring.(k mod cap) with
          | Some r -> out := r :: !out
          | None -> ()
        done;
        !out
      end)

(* Per-domain stack of open spans; [child_ns] accumulates completed child
   durations so a span's self time is [dur - children]. *)
type frame = { f_path : string; mutable child_ns : int }

let span_stack : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span ?(fields = []) name f =
  if (not !spans_flag) && !sink = None then f ()
  else begin
    let stack = Domain.DLS.get span_stack in
    let path =
      match !stack with [] -> name | p :: _ -> p.f_path ^ ";" ^ name
    in
    let depth = List.length !stack in
    let fr = { f_path = path; child_ns = 0 } in
    stack := fr :: !stack;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ns = int_of_float ((now () -. t0) *. 1e9) in
        (stack := match !stack with _ :: tl -> tl | [] -> []);
        (match !stack with
        | parent :: _ -> parent.child_ns <- parent.child_ns + dur_ns
        | [] -> ());
        let self_ns = max 0 (dur_ns - fr.child_ns) in
        hist_record Span_ns dur_ns;
        if !spans_flag then
          ring_push
            {
              span_name = name;
              path;
              dom = (Domain.self () :> int);
              depth;
              t_start = t0 -. proc_t0;
              dur_ns;
              self_ns;
              span_fields = fields;
            };
        if tracing () then
          trace "span"
            ([
               ("name", S name);
               ("path", S path);
               ("dur_ns", I dur_ns);
               ("self_ns", I self_ns);
               ("depth", I depth);
             ]
            @ fields))
      f
  end

(* ------------------------------------------------------------------ *)
(* Phase scope (needs the trace sink above for begin/end events).      *)

let with_phase p f =
  if (not !enabled_flag) && !sink = None then f ()
  else begin
    let idx = phase_index p in
    let prev = Domain.DLS.get phase_key in
    Domain.DLS.set phase_key idx;
    if tracing () then trace "phase" [ ("phase", S phase_names.(idx)); ("dir", S "begin") ];
    let t0 = if !enabled_flag then now () else 0.0 in
    Fun.protect
      ~finally:(fun () ->
        if !enabled_flag then
          ignore
            (Atomic.fetch_and_add phase_wall.(idx)
               (int_of_float ((now () -. t0) *. 1e9)));
        Domain.DLS.set phase_key prev;
        if tracing () then
          trace "phase" [ ("phase", S phase_names.(idx)); ("dir", S "end") ])
      f
  end

(* ------------------------------------------------------------------ *)
(* Snapshots.                                                          *)

type move_stat = { proposed : int; accepted : int; rejected : int; invalid : int }

type phase_stat = { wall_ns : int; ticks : int }

type snapshot = {
  counters : (string * int) list;
  moves : (string * move_stat) list;
  phases : (string * phase_stat) list;
  hists : (string * Hist.t) list;
}

let reset () =
  Array.iter (fun c -> Atomic.set c 0) cells;
  Array.iter (fun c -> Atomic.set c 0) phase_wall;
  Array.iter (fun cs -> Array.iter (fun c -> Atomic.set c 0) cs) hist_cells;
  Array.iter (fun c -> Atomic.set c 0) hist_count;
  Array.iter (fun c -> Atomic.set c 0) hist_sum;
  Mutex.lock traj_mutex;
  Hashtbl.reset traj_table;
  Mutex.unlock traj_mutex;
  Mutex.lock span_ring_mutex;
  Array.fill !span_ring 0 (Array.length !span_ring) None;
  span_ring_next := 0;
  Mutex.unlock span_ring_mutex;
  match !sink with
  | None -> ()
  | Some s ->
    Mutex.lock s.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.mutex)
      (fun () -> Hashtbl.reset s.sample_counts)

let snapshot () =
  let counters =
    List.sort compare
      (List.init n_counters (fun i -> (counter_names.(i), Atomic.get cells.(i))))
  in
  let moves =
    List.init n_kinds (fun k ->
        let cell o = Atomic.get cells.(moves_base + (k * n_outcomes) + o) in
        ( kind_names.(k),
          { proposed = cell 0; accepted = cell 1; rejected = cell 2; invalid = cell 3 }
        ))
  in
  let phases =
    List.init n_phases (fun p ->
        ( phase_names.(p),
          {
            wall_ns = Atomic.get phase_wall.(p);
            ticks = Atomic.get cells.(phase_ticks_base + p);
          } ))
  in
  let hists = List.init n_hists (fun i -> (hist_names.(i), hist_snapshot i)) in
  { counters; moves; phases; hists }

let hist_is_deterministic name =
  let rec go i =
    if i >= n_hists then false
    else if hist_names.(i) = name then hist_deterministic.(i)
    else go (i + 1)
  in
  go 0

(* Positive costs have a zero sign bit, so the low 62 bits of the IEEE
   encoding are injective on them; [Int64.to_int] keeps the view an int
   list without losing information. *)
let float_bits_as_int v = Int64.to_int (Int64.bits_of_float v)

let deterministic_view s =
  let cells =
    s.counters
    @ List.concat_map
        (fun (k, m) ->
          [
            ("moves." ^ k ^ ".proposed", m.proposed);
            ("moves." ^ k ^ ".accepted", m.accepted);
            ("moves." ^ k ^ ".rejected", m.rejected);
            ("moves." ^ k ^ ".invalid", m.invalid);
          ])
        s.moves
    @ List.map (fun (p, st) -> ("phases." ^ p ^ ".ticks", st.ticks)) s.phases
    @ List.concat_map
        (fun (name, h) ->
          if not (hist_is_deterministic name) then []
          else
            ("hist." ^ name ^ ".count", Hist.count h)
            :: ("hist." ^ name ^ ".sum", Hist.sum h)
            :: List.map
                 (fun (i, c) -> (Printf.sprintf "hist.%s.b%04d" name i, c))
                 (Hist.nonzero h))
        s.hists
    @ List.concat_map
        (fun (label, points) ->
          List.concat
            (List.mapi
               (fun k (ticks, cost) ->
                 [
                   (Printf.sprintf "traj.%s.%04d.ticks" label k, ticks);
                   (Printf.sprintf "traj.%s.%04d.cost" label k, float_bits_as_int cost);
                 ])
               points))
        (trajectories ())
  in
  List.sort compare cells

let metrics_schema = "ljqo-metrics/2"

let hist_json h =
  Printf.sprintf
    "{\"count\": %d, \"sum\": %d, \"mean\": %.3f, \"p50\": %d, \"p90\": %d, \
     \"p99\": %d, \"p999\": %d, \"min\": %d, \"max\": %d, \"buckets\": [%s]}"
    (Hist.count h) (Hist.sum h) (Hist.mean h) (Hist.quantile h 0.5)
    (Hist.quantile h 0.9) (Hist.quantile h 0.99) (Hist.quantile h 0.999)
    (Hist.min_value h)
    (Hist.max_value h)
    (String.concat ", "
       (List.map
          (fun (i, c) -> Printf.sprintf "[%d, %d]" (Hist.bucket_lo i) c)
          (Hist.nonzero h)))

let to_json s =
  let b = Buffer.create 1024 in
  let entry ?(last = false) indent name body =
    Buffer.add_string b indent;
    Buffer.add_char b '"';
    Jsonv.escape b name;
    Buffer.add_string b "\": ";
    Buffer.add_string b body;
    if not last then Buffer.add_char b ',';
    Buffer.add_char b '\n'
  in
  let rec entries indent = function
    | [] -> ()
    | [ (name, body) ] -> entry ~last:true indent name body
    | (name, body) :: rest ->
      entry indent name body;
      entries indent rest
  in
  Buffer.add_string b "{\n";
  entry "  " "schema" ("\"" ^ metrics_schema ^ "\"");
  Buffer.add_string b "  \"counters\": {\n";
  entries "    " (List.map (fun (n, v) -> (n, string_of_int v)) s.counters);
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"moves\": {\n";
  entries "    "
    (List.map
       (fun (k, m) ->
         ( k,
           Printf.sprintf
             "{\"proposed\": %d, \"accepted\": %d, \"rejected\": %d, \"invalid\": %d}"
             m.proposed m.accepted m.rejected m.invalid ))
       s.moves);
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"phases\": {\n";
  entries "    "
    (List.map
       (fun (p, st) ->
         (p, Printf.sprintf "{\"wall_ns\": %d, \"ticks\": %d}" st.wall_ns st.ticks))
       s.phases);
  Buffer.add_string b "  },\n";
  Buffer.add_string b "  \"histograms\": {\n";
  entries "    " (List.map (fun (n, h) -> (n, hist_json h)) s.hists);
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let write_metrics ~path =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json (snapshot ())))

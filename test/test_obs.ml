(* Observability must be pure observation: turning metrics or tracing on
   may never change a single bit of any optimizer output, and the counters
   themselves must be independent of the parallel job count (the per-run
   work is deterministic; only its scheduling varies). *)

open Ljqo_core
open Ljqo_harness
module Obs = Ljqo_obs.Obs

let mem = Helpers.memory_model

(* Every test starts from a clean, disabled observer and leaves it that way:
   the other suites in this binary rely on instrumentation being free. *)
let with_clean_obs f =
  Obs.set_enabled false;
  Obs.set_spans false;
  Obs.trace_close ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_spans false;
      Obs.trace_close ();
      Obs.reset ())
    f

let query ~seed =
  let rng = Ljqo_stats.Rng.create seed in
  Ljqo_querygen.Benchmark.generate_query Ljqo_querygen.Benchmark.default
    ~n_joins:14 ~rng

let optimize method_ q =
  let r = Optimizer.optimize ~method_ ~model:mem ~ticks:30_000 ~seed:5 q in
  (Array.to_list r.Optimizer.plan, Int64.bits_of_float r.Optimizer.cost, r.Optimizer.ticks_used)

let with_temp_file f =
  let path = Filename.temp_file "ljqo_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_metrics_do_not_change_results () =
  with_clean_obs (fun () ->
      let q = query ~seed:3 in
      List.iter
        (fun m ->
          Obs.set_enabled false;
          let off = optimize m q in
          Obs.set_enabled true;
          let on = optimize m q in
          Alcotest.(check bool)
            (Methods.name m ^ " bit-identical with metrics on") true (off = on))
        Methods.[ IAI; SA; II ])

let test_tracing_does_not_change_results () =
  with_clean_obs (fun () ->
      let q = query ~seed:4 in
      let off = optimize Methods.SA q in
      with_temp_file (fun path ->
          Obs.trace_to ~sample:2 ~path ();
          let on = optimize Methods.SA q in
          Obs.trace_close ();
          Alcotest.(check bool) "bit-identical with tracing on" true (off = on);
          (* and the trace actually contains events *)
          let ic = open_in path in
          let n = ref 0 in
          (try
             while true do
               let line = input_line ic in
               if String.length line < 2 || line.[0] <> '{' then
                 Alcotest.failf "malformed trace line: %s" line;
               incr n
             done
           with End_of_file -> close_in_noerr ic);
          Alcotest.(check bool) "trace nonempty" true (!n > 0)))

let test_counters_nonzero_and_exact () =
  with_clean_obs (fun () ->
      let q = query ~seed:5 in
      Obs.set_enabled true;
      ignore (optimize Methods.IAI q);
      let s = Obs.snapshot () in
      let counter name =
        match List.assoc_opt name s.Obs.counters with
        | Some v -> v
        | None -> Alcotest.failf "counter %s missing" name
      in
      Alcotest.(check bool) "cost_evals > 0" true (counter "cost_evals" > 0);
      Alcotest.(check bool) "starts > 0" true (counter "starts" > 0);
      Alcotest.(check bool) "charges > 0" true (counter "budget.charges" > 0);
      let moved =
        List.fold_left
          (fun acc (_, m) -> acc + m.Obs.proposed)
          0 s.Obs.moves
      in
      Alcotest.(check bool) "moves proposed > 0" true (moved > 0);
      (* Outcomes partition proposals, except that the very last proposal of
         a run can be truncated mid-evaluation by budget exhaustion (the
         exception ends the run before its outcome is recorded). *)
      List.iter
        (fun (kind, m) ->
          let outcomes = m.Obs.accepted + m.Obs.rejected + m.Obs.invalid in
          if outcomes > m.Obs.proposed || m.Obs.proposed - outcomes > 1 then
            Alcotest.failf "%s: %d proposals but %d outcomes" kind m.Obs.proposed
              outcomes)
        s.Obs.moves)

let test_dp_counters_independent_of_jobs () =
  with_clean_obs (fun () ->
      let q = query ~seed:6 in
      let run jobs =
        Obs.reset ();
        Obs.set_enabled true;
        let r = Dp.optimize ~jobs mem q in
        (Obs.deterministic_view (Obs.snapshot ()), r.Dp.subsets_explored)
      in
      let v1, explored1 = run 1 in
      let v4, explored4 = run 4 in
      Alcotest.(check bool) "counters identical for jobs 1 vs 4" true (v1 = v4);
      Alcotest.(check int) "dp.subsets matches subsets_explored" explored1
        (match List.assoc_opt "dp.subsets" v1 with Some v -> v | None -> -1);
      Alcotest.(check int) "explored count itself agrees" explored1 explored4)

let test_experiment_counters_independent_of_jobs () =
  with_clean_obs (fun () ->
      let workload =
        Ljqo_querygen.Workload.make ~ns:[ 5; 8 ] ~per_n:2 ~seed:11
          Ljqo_querygen.Benchmark.default
      in
      (* The portfolio runs once nested in the harness's per-query batch and
         once on its own, where its legs can run on a pool worker. *)
      let run jobs =
        Obs.reset ();
        Obs.set_enabled true;
        Helpers.with_jobs jobs @@ fun () ->
        let o =
          Driver.run_experiment ~workload ~methods:Methods.[ II; IAI; Portfolio ]
            ~model:mem ~tfactors:[ 0.5; 9.0 ] ~replicates:2 ()
        in
        let r =
          Obs.with_run "portfolio" @@ fun () ->
          Obs.with_phase Obs.Driver @@ fun () ->
          Optimizer.optimize ~method_:Methods.Portfolio ~model:mem ~ticks:20_000
            ~seed:5 (query ~seed:9)
        in
        (Obs.deterministic_view (Obs.snapshot ()), (o.Driver.averages, r.cost))
      in
      let v1, a1 = run 1 in
      let v3, a3 = run 3 in
      Alcotest.(check bool) "averages identical across job counts" true (a1 = a3);
      Alcotest.(check bool) "counter totals identical across job counts" true
        (v1 = v3))

(* --- Spans ------------------------------------------------------------- *)

let test_spans_do_not_change_results () =
  with_clean_obs (fun () ->
      let workload =
        Ljqo_querygen.Workload.make ~ns:[ 5; 8 ] ~per_n:1 ~seed:13
          Ljqo_querygen.Benchmark.default
      in
      let run spans_on =
        Obs.reset ();
        Obs.set_enabled true;
        Obs.set_spans spans_on;
        let o =
          Driver.run_experiment ~workload ~methods:Methods.[ II; SA ] ~model:mem
            ~tfactors:[ 0.5 ] ~replicates:1 ()
        in
        let view = Obs.deterministic_view (Obs.snapshot ()) in
        Obs.set_spans false;
        (view, o.Driver.averages)
      in
      let v_off, a_off = run false in
      Alcotest.(check bool) "ring empty with spans off" true (Obs.spans () = []);
      let v_on, a_on = run true in
      Alcotest.(check bool) "averages identical with spans on" true
        (a_off = a_on);
      Alcotest.(check bool) "deterministic view identical with spans on" true
        (v_off = v_on);
      let recorded = Obs.spans () in
      Alcotest.(check bool) "span ring nonempty with spans on" true
        (recorded <> []);
      List.iter
        (fun (s : Obs.span_rec) ->
          if s.Obs.self_ns < 0 || s.Obs.self_ns > s.Obs.dur_ns || s.Obs.depth < 0
          then
            Alcotest.failf "bad span %s: dur=%dns self=%dns depth=%d" s.Obs.path
              s.Obs.dur_ns s.Obs.self_ns s.Obs.depth)
        recorded)

let test_span_nesting () =
  with_clean_obs (fun () ->
      Obs.set_spans ~ring_capacity:16 true;
      let r =
        Obs.span "outer" (fun () ->
            Obs.span ~fields:[ ("k", Obs.I 1) ] "inner" (fun () -> 7))
      in
      Alcotest.(check int) "span returns the body's result" 7 r;
      (match Obs.spans () with
      | [ inner; outer ] ->
        (* children complete before their parent, so inner lands first *)
        Alcotest.(check string) "inner path" "outer;inner" inner.Obs.path;
        Alcotest.(check string) "outer path" "outer" outer.Obs.path;
        Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
        Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
        Alcotest.(check bool) "outer self-time excludes the child" true
          (outer.Obs.self_ns <= outer.Obs.dur_ns
          && outer.Obs.dur_ns >= inner.Obs.dur_ns)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
      (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "exception-closed span still recorded" 3
        (List.length (Obs.spans ())))

(* --- Histograms --------------------------------------------------------- *)

module Hist = Ljqo_obs.Hist
module Jsonv = Ljqo_obs.Jsonv
module Service = Ljqo_service.Service

let hist_of_list vs = List.fold_left Hist.record Hist.empty vs

let qcheck_hist_merge =
  Helpers.qcheck_case ~name:"hist merge associative, commutative, order-free"
    (fun (a, (b, c)) ->
      let ha = hist_of_list a
      and hb = hist_of_list b
      and hc = hist_of_list c in
      Hist.merge (Hist.merge ha hb) hc = Hist.merge ha (Hist.merge hb hc)
      && Hist.merge ha hb = Hist.merge hb ha
      && Hist.merge ha Hist.empty = ha
      && hist_of_list (a @ b) = Hist.merge ha hb
      && hist_of_list (List.rev a) = ha)
    QCheck.(
      let vs = list (int_bound 1_000_000) in
      pair vs (pair vs vs))

let qcheck_hist_geometry =
  Helpers.qcheck_case ~name:"hist bucket bounds bracket the value"
    (fun v ->
      let i = Hist.index v in
      0 <= i
      && i < Hist.n_buckets
      && Hist.bucket_lo i <= v
      && v < Hist.bucket_lo (i + 1)
      && Hist.count (Hist.record Hist.empty v) = 1
      && Hist.sum (Hist.record Hist.empty v) = v)
    QCheck.(int_bound (1 lsl 55))

(* Audit pins for [Hist.quantile] (the rank is clamped into [1, count]):
   the extreme quantiles must land on the recorded extremes' buckets, and
   the curve must be monotone in [q]. *)
let qcheck_hist_quantile_extremes =
  Helpers.qcheck_case ~name:"hist quantile 1.0 = max_value, 0.0 = min bucket"
    (fun vs ->
      let h = hist_of_list vs in
      Hist.quantile h 1.0 = Hist.max_value h
      && Hist.quantile h 0.0 = Hist.min_value h
      (* out-of-range q clamps rather than walking off the table *)
      && Hist.quantile h 2.0 = Hist.max_value h
      && Hist.quantile h (-1.0) = Hist.min_value h)
    QCheck.(list (int_bound 1_000_000))

let qcheck_hist_quantile_monotone =
  Helpers.qcheck_case ~name:"hist quantile monotone in q"
    (fun (vs, (qa, qb)) ->
      let h = hist_of_list vs in
      let qa = float_of_int qa /. 100.0 and qb = float_of_int qb /. 100.0 in
      let lo = Float.min qa qb and hi = Float.max qa qb in
      Hist.quantile h lo <= Hist.quantile h hi)
    QCheck.(pair (list (int_bound 1_000_000)) (pair (int_bound 100) (int_bound 100)))

let test_service_latency_histograms () =
  with_clean_obs (fun () ->
      Obs.set_enabled true;
      let queries = Array.init 4 (fun i -> query ~seed:(40 + i)) in
      let service =
        Service.create
          { Service.default_config with
            Service.budget = Service.Fixed_ticks 2_000
          }
      in
      let served = Service.serve_batch ~jobs:2 service queries in
      let s = Obs.snapshot () in
      let hist name =
        match List.assoc_opt name s.Obs.hists with
        | Some h -> h
        | None -> Alcotest.failf "histogram %s missing from snapshot" name
      in
      Alcotest.(check int) "one latency sample per request" 4
        (Hist.count (hist "service.latency_ns"));
      Alcotest.(check int) "one ticks sample per request" 4
        (Hist.count (hist "service.request_ticks"));
      let total_ticks =
        Array.fold_left (fun acc r -> acc + r.Service.ticks_used) 0 served
      in
      Alcotest.(check int) "ticks histogram sums the batch" total_ticks
        (Hist.sum (hist "service.request_ticks"));
      Alcotest.(check bool) "cache lookups were timed" true
        (Hist.count (hist "cache.lookup_ns") > 0))

(* --- Snapshot schema ----------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_metrics_schema_pinned () =
  with_clean_obs (fun () ->
      Alcotest.(check string) "schema id" "ljqo-metrics/2" Obs.metrics_schema;
      Obs.set_enabled true;
      ignore (optimize Methods.II (query ~seed:8));
      let json = Obs.to_json (Obs.snapshot ()) in
      (match Jsonv.check_json json with
      | Ok () -> ()
      | Error e -> Alcotest.failf "snapshot JSON invalid: %s" e);
      Alcotest.(check bool) "schema string embedded" true
        (contains ~sub:{|"schema": "ljqo-metrics/2"|} json);
      Alcotest.(check bool) "histogram registry embedded" true
        (contains ~sub:{|"move.cost_delta"|} json))

let suite =
  [
    Alcotest.test_case "metrics do not change results" `Quick
      test_metrics_do_not_change_results;
    Alcotest.test_case "tracing does not change results" `Quick
      test_tracing_does_not_change_results;
    Alcotest.test_case "counters nonzero and consistent" `Quick
      test_counters_nonzero_and_exact;
    Alcotest.test_case "dp counters independent of jobs" `Quick
      test_dp_counters_independent_of_jobs;
    Alcotest.test_case "experiment counters independent of jobs" `Quick
      test_experiment_counters_independent_of_jobs;
    Alcotest.test_case "spans do not change results" `Quick
      test_spans_do_not_change_results;
    Alcotest.test_case "span nesting and self time" `Quick test_span_nesting;
    qcheck_hist_merge;
    qcheck_hist_geometry;
    qcheck_hist_quantile_extremes;
    qcheck_hist_quantile_monotone;
    Alcotest.test_case "service latency histograms" `Quick
      test_service_latency_histograms;
    Alcotest.test_case "metrics schema pinned" `Quick test_metrics_schema_pinned;
  ]

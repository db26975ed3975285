(* Execution-grounded estimation feedback: q-error algebra, alignment of
   estimated vs observed cardinalities, truncation isolation, calibration
   fitting and its sealed file format, and the obs invariant
   that feedback totals are bit-identical across job counts. *)

open Ljqo_catalog
module Feedback = Ljqo_feedback.Feedback
module Calibration = Ljqo_feedback.Calibration
module Plan_cost = Ljqo_cost.Plan_cost
module Relation_data = Ljqo_exec.Relation_data
module Obs = Ljqo_obs.Obs

let mem = Helpers.memory_model

let data_for ?(seed = 1) q =
  Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.create seed)

(* --- q-error algebra ---------------------------------------------------- *)

(* Positive magnitudes spanning many decades, including sub-1 values that
   exercise the flooring of both sides at 1. *)
let magnitude =
  QCheck.map
    (fun (m, e) -> float_of_int (1 + abs m) *. (10.0 ** float_of_int (e mod 7)))
    QCheck.(pair small_int small_int)

let prop_qerror_ge_one =
  Helpers.qcheck_case ~count:200 ~name:"q-error >= 1"
    (fun (est, act) -> Plan_cost.qerror ~est ~act >= 1.0)
    (QCheck.pair magnitude magnitude)

let prop_qerror_symmetric =
  Helpers.qcheck_case ~count:200 ~name:"q-error symmetric under est/act swap"
    (fun (est, act) ->
      Plan_cost.qerror ~est ~act = Plan_cost.qerror ~est:act ~act:est)
    (QCheck.pair magnitude magnitude)

let test_qerror_floors () =
  (* Both sides floor at 1, so an empty intermediate against a tiny estimate
     is exact, not an infinite error. *)
  Helpers.check_approx "zero actual" 1.0 (Plan_cost.qerror ~est:0.5 ~act:0.0);
  Helpers.check_approx "exact" 1.0 (Plan_cost.qerror ~est:42.0 ~act:42.0);
  Helpers.check_approx "10x over" 10.0 (Plan_cost.qerror ~est:1000.0 ~act:100.0);
  Helpers.check_approx "10x under" 10.0 (Plan_cost.qerror ~est:100.0 ~act:1000.0);
  Alcotest.(check int) "q = 1 records as 1000" 1000 (Feedback.milli 1.0);
  Alcotest.(check bool) "milli saturates, never overflows" true
    (Feedback.milli infinity = Feedback.milli 1e300)

(* A malformed plan fails in the executor's validation, not on the first
   relation's data lookup. *)
let test_observe_rejects_bad_plans () =
  let q = Helpers.chain3 () in
  let data = data_for q in
  List.iter
    (fun plan ->
      Alcotest.check_raises "executor's error"
        (Invalid_argument "Executor: plan is not a permutation of the query")
        (fun () -> ignore (Feedback.observe q ~data plan)))
    [ [||]; [| 99; 0 |]; [| -1; 0 |] ]

(* --- alignment: observe/measure on a hand-built chain ------------------- *)

(* A - B - C chain whose graph selectivities are biased 10x below the truth
   the generated data realizes (columns are uniform on D = 10 distinct
   values, so the realized per-edge selectivity is 1/10, while the catalog
   claims 1/100).  Estimates are then ~10x low at depth 1 and ~100x low at
   depth 2 — known-bad ground truth for the golden assertions below. *)
let biased_chain ?(bias = 0.1) () =
  let relations =
    [|
      Helpers.rel ~id:0 ~name:"A" ~card:100 ~distinct:0.1 ();
      Helpers.rel ~id:1 ~name:"B" ~card:100 ~distinct:0.1 ();
      Helpers.rel ~id:2 ~name:"C" ~card:100 ~distinct:0.1 ();
    |]
  in
  let claimed = 0.1 *. bias in
  let edges =
    [
      { Join_graph.u = 0; v = 1; selectivity = claimed };
      { Join_graph.u = 1; v = 2; selectivity = claimed };
    ]
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:3 edges)

let test_observe_aligns_with_executor () =
  let q = Helpers.small_exec_query ~n_joins:4 7 in
  let data = data_for ~seed:7 q in
  let plan = Helpers.valid_random_plan q 21 in
  let obs = Feedback.observe q ~data plan in
  let r = Ljqo_exec.Executor.run q ~data plan in
  Alcotest.(check (list int)) "act_cards = Executor.cardinalities"
    (Ljqo_exec.Executor.cardinalities r)
    (Array.to_list (Array.map int_of_float obs.act_cards));
  Alcotest.(check bool) "not truncated" true (obs.truncated_at = None);
  Alcotest.(check bool) "result rows recovered" true
    (obs.result_rows = Some r.row_count)

let test_golden_biased_chain () =
  (* Fixed seeds, known bias: per-depth q-error must sit in the decade the
     injected 10x-per-edge bias predicts. *)
  let q = biased_chain () in
  let data = data_for ~seed:3 q in
  let m = Helpers.execute ~model:mem q ~data [| 0; 1; 2 |] in
  Alcotest.(check int) "two samples (depths 1 and 2)" 2
    (List.length m.samples);
  let by_depth d =
    List.find (fun (s : Feedback.sample) -> s.depth = d) m.samples
  in
  let s1 = by_depth 1 and s2 = by_depth 2 in
  Alcotest.(check int) "depth 1 folds one edge" 1 s1.edges;
  Alcotest.(check int) "depth 2 folds two edges" 2 s2.edges;
  Alcotest.(check bool)
    (Printf.sprintf "depth-1 q-error %.2f in [5, 20]" s1.qerror)
    true
    (s1.qerror >= 5.0 && s1.qerror <= 20.0);
  Alcotest.(check bool)
    (Printf.sprintf "depth-2 q-error %.2f in [50, 200]" s2.qerror)
    true
    (s2.qerror >= 50.0 && s2.qerror <= 200.0);
  Alcotest.(check bool) "cost ratio present on a complete run" true
    (m.cost_ratio <> None);
  (* The summary's quantiles over this single run are the samples
     themselves. *)
  let summary =
    Feedback.Summary.of_runs [ { n_joins = 2; rep = 0; measurement = m } ]
  in
  List.iter
    (fun (d : Feedback.Summary.depth_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s p50 = p95 = max on one sample" d.label)
        true
        (d.count = 1 && d.p50 = d.p95 && d.p95 = d.worst))
    summary.depths

let test_calibration_corrects_known_bias () =
  (* The least-squares fit over the biased chain must recover roughly the
     inverse bias (10x), and re-measuring the same observation under the
     fitted factor must shrink the mean q-error. *)
  let q = biased_chain () in
  let data = data_for ~seed:3 q in
  let obs = Feedback.observe q ~data [| 0; 1; 2 |] in
  let before = Feedback.measure ~model:mem q ~data obs in
  let factor =
    match Calibration.fit_samples before.samples with
    | Some f -> f
    | None -> Alcotest.fail "fit must succeed on two clean samples"
  in
  Alcotest.(check bool)
    (Printf.sprintf "fitted factor %.2f near the inverse bias" factor)
    true
    (factor >= 5.0 && factor <= 20.0);
  let after =
    Feedback.measure ~calibration:{ Plan_cost.sel_factor = factor } ~model:mem q
      ~data obs
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean q-error improves (%.2f -> %.2f)" before.mean_qerror
       after.mean_qerror)
    true
    (after.mean_qerror < before.mean_qerror)

let test_no_calibration_is_bit_identical () =
  (* The purity invariant on the argument itself: a calibrated estimate
     leaves nothing behind, so estimating without a calibration before and
     after it gives the same bits. *)
  let q = Helpers.random_query ~n_joins:10 11 in
  let plan = Helpers.valid_random_plan q 12 in
  let a = Plan_cost.eval mem q plan in
  let biased =
    Plan_cost.eval ~calibration:{ Plan_cost.sel_factor = 1.0 +. 1e-12 } mem q plan
  in
  let b = Plan_cost.eval mem q plan in
  Alcotest.(check bool) "uncalibrated eval bit-identical" true
    (a.total = b.total && a.cards = b.cards);
  Alcotest.(check bool) "a non-unit factor does perturb" true
    (biased.total <> a.total || biased.cards <> a.cards)

(* --- truncation isolation ----------------------------------------------- *)

(* Two small joinable relations whose join explodes: D = 1 on both sides
   makes the join a cross product in disguise. *)
let exploding_query () =
  let relations =
    [|
      Helpers.rel ~id:0 ~card:200 ~distinct:0.001 ();
      Helpers.rel ~id:1 ~card:200 ~distinct:0.001 ();
    |]
  in
  Query.make ~relations
    ~graph:
      (Join_graph.make ~n:2
         [ { Join_graph.u = 0; v = 1; selectivity = 1.0 } ])

let test_truncation_does_not_poison_siblings () =
  (* Chaos-style: a batch where one plan overflows the row cap must still
     yield full measurements for every sibling, and exactly one truncation
     must be counted. *)
  Obs.set_enabled true;
  Obs.reset ();
  let sibling seed =
    let q = Helpers.small_exec_query ~n_joins:3 seed in
    (q, data_for ~seed q, Helpers.valid_random_plan q (seed * 7))
  in
  let oversized =
    let q = exploding_query () in
    (q, data_for ~seed:2 q, [| 0; 1 |])
  in
  let batch = [ sibling 31; oversized; sibling 32 ] in
  let results =
    List.map
      (fun (q, data, plan) ->
        Helpers.execute ~max_rows:1000 ~model:mem q ~data plan)
      batch
  in
  (match results with
  | [ a; big; c ] ->
    Alcotest.(check bool) "sibling 1 complete" true (a.m_truncated_at = None);
    Alcotest.(check bool) "sibling 2 complete" true (c.m_truncated_at = None);
    Alcotest.(check bool) "oversized truncated at depth 1" true
      (big.m_truncated_at = Some 1);
    Alcotest.(check bool) "truncated run has no cost ratio" true
      (big.cost_ratio = None);
    Alcotest.(check bool) "siblings still measured" true
      (a.samples <> [] && c.samples <> [])
  | _ -> assert false);
  let counters = (Obs.snapshot ()).Obs.counters in
  Alcotest.(check int) "three plans executed" 3
    (List.assoc "feedback.plans_executed" counters);
  Alcotest.(check int) "one truncation counted" 1
    (List.assoc "feedback.result_too_large" counters);
  Obs.reset ();
  Obs.set_enabled false

let test_run_spec_survives_tiny_cap () =
  (* End to end: a run over a real benchmark spec with an absurdly small row
     cap truncates plans but never shrinks the run list. *)
  let runs =
    Feedback.run_spec ~max_rows:20 ~model:mem ~method_:Ljqo_core.Methods.IAI
      ~t_factor:1.0 ~ns:[ 4; 5 ] ~per_n:2 ~seed:5
      Ljqo_querygen.Benchmark.default
  in
  Alcotest.(check int) "all grid cells measured" 4 (List.length runs);
  Alcotest.(check bool) "the tiny cap truncated something" true
    (List.exists
       (fun (r : Feedback.run) -> r.measurement.m_truncated_at <> None)
       runs)

(* --- determinism across job counts -------------------------------------- *)

let test_jobs_determinism () =
  (* The tentpole's obs invariant: counters and the log-bucketed q-error
     histograms merge to bit-identical totals whatever the job count,
     because recording is atomic adds into fixed buckets. *)
  let view jobs =
    Obs.set_enabled true;
    Obs.reset ();
    ignore
      (Feedback.run_spec ~jobs ~model:mem ~method_:Ljqo_core.Methods.IAI
         ~t_factor:1.0 ~ns:[ 4; 5 ] ~per_n:2 ~seed:9
         Ljqo_querygen.Benchmark.default);
    let v = Obs.deterministic_view (Obs.snapshot ()) in
    Obs.reset ();
    Obs.set_enabled false;
    v
  in
  let v1 = view 1 in
  let v2 = view 2 in
  let v4 = view 4 in
  Alcotest.(check bool) "some feedback cells recorded" true
    (List.exists (fun (k, v) -> String.length k >= 8
                                && String.sub k 0 8 = "feedback" && v > 0) v1);
  Alcotest.(check bool) "jobs 1 = jobs 2" true (v1 = v2);
  Alcotest.(check bool) "jobs 1 = jobs 4" true (v1 = v4)

let test_run_spec_results_job_invariant () =
  let run jobs =
    Feedback.run_spec ~jobs ~model:mem ~method_:Ljqo_core.Methods.II
      ~t_factor:1.0 ~ns:[ 4 ] ~per_n:3 ~seed:13
      Ljqo_querygen.Benchmark.default
  in
  Alcotest.(check bool) "measurements bit-identical across jobs" true
    (run 1 = run 4)

(* The calibration is an argument of each call, so two calls with
   different factors can run at once.  The pair runs a hundred times: a
   shared setting would corrupt only the rounds in which the two
   measurements happen to overlap. *)
let test_run_spec_concurrent_calibrations () =
  let run sel_factor () =
    Feedback.run_spec ~jobs:2 ?sel_factor ~model:mem
      ~method_:Ljqo_core.Methods.IAI ~t_factor:1.0 ~ns:[ 4; 5 ] ~per_n:2 ~seed:17
      Ljqo_querygen.Benchmark.default
  in
  let sequential = (run None (), run (Some 3.1) ()) in
  Alcotest.(check bool) "the factor changes the measurements" true
    (fst sequential <> snd sequential);
  for _ = 1 to 100 do
    let other = Domain.spawn (run (Some 3.1)) in
    let first = run None () in
    Alcotest.(check bool) "concurrent pair = sequential pair" true
      (sequential = (first, Domain.join other))
  done

(* --- calibration files --------------------------------------------------- *)

let roundtrip_entries =
  [ ("default", 1.0); ("card-x10", 0.25); ("graph-star", 12.5) ]

let test_calibration_roundtrip () =
  let t = { Calibration.entries = roundtrip_entries } in
  match Calibration.of_string (Calibration.to_string t) with
  | Ok t' ->
    Alcotest.(check bool) "entries survive, order preserved" true
      (t'.Calibration.entries = roundtrip_entries);
    Alcotest.(check bool) "factor lookup" true
      (Calibration.factor t' "card-x10" = Some 0.25
      && Calibration.factor t' "absent" = None)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_calibration_strictness () =
  let good = Calibration.to_string { Calibration.entries = roundtrip_entries } in
  let expect_error label s =
    match Calibration.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must be rejected" label
  in
  expect_error "empty" "";
  expect_error "missing trailing newline" (String.sub good 0 (String.length good - 1));
  expect_error "bad magic" ("x" ^ good);
  (* Flip one payload byte: the line seal must catch it. *)
  let corrupt = Bytes.of_string good in
  let i = String.index good 'C' in
  Bytes.set corrupt (i + 2) 'X';
  expect_error "corrupted payload" (Bytes.to_string corrupt);
  (* A truncated file disagrees with the declared entry count. *)
  (match String.index_opt good '\n' with
  | Some _ ->
    let lines = String.split_on_char '\n' good in
    let shorter = String.concat "\n" (List.filteri (fun i _ -> i <> 2) lines) in
    expect_error "dropped entry line" shorter
  | None -> assert false);
  (* Out-of-range factors never load. *)
  (match
     Calibration.of_string
       (Calibration.to_string { Calibration.entries = [ ("d", 1e3) ] })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ceiling factor must load: %s" e);
  expect_error "duplicate catalog"
    (Calibration.to_string
       { Calibration.entries = [ ("d", 1.0); ("d", 2.0) ] });
  match Calibration.to_string { Calibration.entries = [ ("bad name", 1.0) ] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "catalog names with spaces must be refused"

let test_fit_clamps_and_declines () =
  Alcotest.(check bool) "no usable sample -> None" true
    (Calibration.fit_samples
       [ { Feedback.depth = 1; edges = 0; est = 10.0; act = 20.0; qerror = 2.0 } ]
    = None);
  match
    Calibration.fit_samples
      [ { Feedback.depth = 1; edges = 1; est = 1.0; act = 1e30; qerror = 1e30 } ]
  with
  | Some f -> Helpers.check_approx "degenerate fit clamps to ceiling"
                Calibration.factor_ceiling f
  | None -> Alcotest.fail "one usable sample must fit"

let suite =
  [
    prop_qerror_ge_one;
    prop_qerror_symmetric;
    Alcotest.test_case "q-error floors and milli encoding" `Quick
      test_qerror_floors;
    Alcotest.test_case "observe aligns with the executor" `Quick
      test_observe_aligns_with_executor;
    Alcotest.test_case "observe rejects malformed plans" `Quick
      test_observe_rejects_bad_plans;
    Alcotest.test_case "golden: biased chain per-depth q-error" `Quick
      test_golden_biased_chain;
    Alcotest.test_case "calibration corrects a known bias" `Quick
      test_calibration_corrects_known_bias;
    Alcotest.test_case "no calibration is bit-identical" `Quick
      test_no_calibration_is_bit_identical;
    Alcotest.test_case "truncation does not poison siblings" `Quick
      test_truncation_does_not_poison_siblings;
    Alcotest.test_case "run_spec survives a tiny row cap" `Quick
      test_run_spec_survives_tiny_cap;
    Alcotest.test_case "histogram totals identical across jobs" `Quick
      test_jobs_determinism;
    Alcotest.test_case "run_spec results job-invariant" `Quick
      test_run_spec_results_job_invariant;
    Alcotest.test_case "run_spec calls with different calibrations at once" `Quick
      test_run_spec_concurrent_calibrations;
    Alcotest.test_case "calibration file roundtrip" `Quick
      test_calibration_roundtrip;
    Alcotest.test_case "calibration file strictness" `Quick
      test_calibration_strictness;
    Alcotest.test_case "fit clamps and declines" `Quick
      test_fit_clamps_and_declines;
  ]

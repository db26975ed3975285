open Ljqo_catalog

let uniform_hist () =
  Histogram.of_counts ~lo:0.0 ~hi:100.0 ~counts:[| 25; 25; 25; 25 |]

let test_of_counts_validation () =
  (match Histogram.of_counts ~lo:1.0 ~hi:1.0 ~counts:[| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty range accepted");
  (match Histogram.of_counts ~lo:0.0 ~hi:1.0 ~counts:[||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no buckets accepted");
  match Histogram.of_counts ~lo:0.0 ~hi:1.0 ~counts:[| -1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count accepted"

let test_basic_accessors () =
  let h = uniform_hist () in
  Alcotest.(check int) "total" 100 (Histogram.total h);
  Alcotest.(check int) "bins" 4 (Histogram.bins h);
  Alcotest.(check (pair (float 0.0) (float 0.0))) "range" (0.0, 100.0)
    (Histogram.range h)

let test_selectivity_lt_uniform () =
  let h = uniform_hist () in
  Helpers.check_approx "below range" 0.0 (Histogram.selectivity_lt h (-5.0));
  Helpers.check_approx "above range" 1.0 (Histogram.selectivity_lt h 200.0);
  Helpers.check_approx "midpoint" 0.5 (Histogram.selectivity_lt h 50.0);
  Helpers.check_approx "quarter" 0.25 (Histogram.selectivity_lt h 25.0);
  Helpers.check_approx "interpolated" 0.10 (Histogram.selectivity_lt h 10.0)

let test_selectivity_ge () =
  let h = uniform_hist () in
  Helpers.check_approx "complement" 0.7 (Histogram.selectivity_ge h 30.0)

let test_skewed () =
  let h = Histogram.of_counts ~lo:0.0 ~hi:10.0 ~counts:[| 90; 10 |] in
  Helpers.check_approx "skew low" 0.9 (Histogram.selectivity_lt h 5.0);
  Helpers.check_approx "skew interpolate" 0.45 (Histogram.selectivity_lt h 2.5)

let test_selectivity_eq () =
  let h = uniform_hist () in
  (* distinct 100 over 4 buckets: 25 per bucket; eq = 0.25/25 = 0.01 *)
  Helpers.check_approx "uniform eq" 0.01 (Histogram.selectivity_eq h ~distinct:100 37.0);
  Helpers.check_approx "outside range" 0.0
    (Histogram.selectivity_eq h ~distinct:100 250.0)

let prop_lt_monotone =
  Helpers.qcheck_case ~name:"selectivity_lt is monotone"
    (fun (a, b) ->
      let h = uniform_hist () in
      let lo = Float.min a b and hi = Float.max a b in
      Histogram.selectivity_lt h lo <= Histogram.selectivity_lt h hi +. 1e-9)
    QCheck.(pair (float_bound_inclusive 150.0) (float_bound_inclusive 150.0))

let suite =
  [
    Alcotest.test_case "of_counts validation" `Quick test_of_counts_validation;
    Alcotest.test_case "basic accessors" `Quick test_basic_accessors;
    Alcotest.test_case "selectivity_lt uniform" `Quick test_selectivity_lt_uniform;
    Alcotest.test_case "selectivity_ge" `Quick test_selectivity_ge;
    Alcotest.test_case "skewed histogram" `Quick test_skewed;
    Alcotest.test_case "selectivity_eq" `Quick test_selectivity_eq;
    prop_lt_monotone;
  ]

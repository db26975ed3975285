open Ljqo_stats

let data = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |]

let test_mean () = Helpers.check_approx "mean" 5.0 (Summary.mean data)

let test_variance () =
  (* Sample variance of the classic dataset: ss = 32, n-1 = 7. *)
  Helpers.check_approx "variance" (32.0 /. 7.0) (Summary.variance data);
  Helpers.check_approx "singleton variance" 0.0 (Summary.variance [| 3.0 |])

let test_median () =
  Helpers.check_approx "even median" 4.5 (Summary.median data);
  Helpers.check_approx "odd median" 4.0 (Summary.median [| 9.0; 4.0; 1.0 |]);
  (* median must not mutate *)
  let a = [| 3.0; 1.0; 2.0 |] in
  ignore (Summary.median a);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] a

let test_percentile () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Helpers.check_approx "p0" 1.0 (Summary.percentile a 0.0);
  Helpers.check_approx "p100" 5.0 (Summary.percentile a 100.0);
  Helpers.check_approx "p50" 3.0 (Summary.percentile a 50.0);
  Helpers.check_approx "p25" 2.0 (Summary.percentile a 25.0);
  Helpers.check_approx "interpolated" 1.4 (Summary.percentile a 10.0)

let test_min_max () =
  let mn, mx = Summary.min_max data in
  Helpers.check_approx "min" 2.0 mn;
  Helpers.check_approx "max" 9.0 mx

let test_geometric_mean () =
  Helpers.check_approx "geomean" 4.0 (Summary.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Summary.geometric_mean: non-positive sample") (fun () ->
      ignore (Summary.geometric_mean [| 1.0; 0.0 |]))

let test_empty_inputs () =
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name (Invalid_argument ("Summary." ^ name ^ ": empty input"))
        (fun () -> ignore (f [||])))
    [
      ("mean", Summary.mean);
      ("median", Summary.median);
      ("variance", Summary.variance);
    ]

let prop_percentile_monotone =
  Helpers.qcheck_case ~name:"percentile is monotone in p"
    (fun l ->
      let a = Array.of_list (List.map float_of_int l) in
      QCheck.assume (Array.length a >= 1);
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vs = List.map (Summary.percentile a) ps in
      List.for_all2 (fun x y -> x <= y +. 1e-9)
        (List.filteri (fun i _ -> i < List.length vs - 1) vs)
        (List.tl vs))
    QCheck.(list small_signed_int)

let suite =
  [
    Alcotest.test_case "mean" `Quick test_mean;
    Alcotest.test_case "variance" `Quick test_variance;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "min_max" `Quick test_min_max;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "empty inputs rejected" `Quick test_empty_inputs;
    prop_percentile_monotone;
  ]

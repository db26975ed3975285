open Ljqo_stats

let rng () = Rng.create 1234

let test_constant () =
  let d = Dist.constant 5 in
  let r = rng () in
  for _ = 1 to 10 do
    Alcotest.(check int) "constant" 5 (Dist.sample d r)
  done

let test_int_range_bounds () =
  let d = Dist.int_range 10 20 in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Dist.sample d r in
    if v < 10 || v >= 20 then Alcotest.fail "int_range out of bounds"
  done

let test_int_range_empty () =
  Alcotest.check_raises "empty range" (Invalid_argument "Dist.int_range: empty range")
    (fun () -> ignore (Dist.int_range 5 5))

let test_float_range_bounds () =
  let d = Dist.float_range 0.25 0.75 in
  let r = rng () in
  for _ = 1 to 1000 do
    let v = Dist.sample d r in
    if v < 0.25 || v >= 0.75 then Alcotest.fail "float_range out of bounds"
  done

let test_mixture_weights () =
  let d = Dist.mixture [ (0.8, Dist.constant 1); (0.2, Dist.constant 2) ] in
  let r = rng () in
  let n = 50_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Dist.sample d r = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  if frac < 0.78 || frac > 0.82 then Alcotest.failf "mixture weight off: %f" frac

let test_mixture_validation () =
  Alcotest.check_raises "no components"
    (Invalid_argument "Dist.mixture: no components") (fun () ->
      ignore (Dist.mixture []));
  Alcotest.check_raises "zero weight"
    (Invalid_argument "Dist.mixture: non-positive total weight") (fun () ->
      ignore (Dist.mixture [ (0.0, Dist.constant 1) ]))

let test_of_list_membership () =
  let values = [ 0.1; 0.5; 0.9 ] in
  let d = Dist.of_list values in
  let r = rng () in
  for _ = 1 to 100 do
    let v = Dist.sample d r in
    if not (List.mem v values) then Alcotest.fail "of_list outside values"
  done

let test_of_list_weighting () =
  (* Repeated elements double the weight. *)
  let d = Dist.of_list [ 1; 1; 2 ] in
  let r = rng () in
  let n = 30_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if Dist.sample d r = 1 then incr ones
  done;
  let frac = float_of_int !ones /. float_of_int n in
  if frac < 0.63 || frac > 0.70 then Alcotest.failf "of_list weight off: %f" frac

let test_map () =
  let d = Dist.map (fun x -> x * 2) (Dist.constant 21) in
  Alcotest.(check int) "map" 42 (Dist.sample d (rng ()))

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "int_range bounds" `Quick test_int_range_bounds;
    Alcotest.test_case "int_range rejects empty" `Quick test_int_range_empty;
    Alcotest.test_case "float_range bounds" `Quick test_float_range_bounds;
    Alcotest.test_case "mixture weights" `Slow test_mixture_weights;
    Alcotest.test_case "mixture validation" `Quick test_mixture_validation;
    Alcotest.test_case "of_list membership" `Quick test_of_list_membership;
    Alcotest.test_case "of_list weighting" `Slow test_of_list_weighting;
    Alcotest.test_case "map" `Quick test_map;
  ]

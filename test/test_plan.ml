open Ljqo_core

let test_is_permutation () =
  Alcotest.(check bool) "identity" true (Plan.is_permutation [| 0; 1; 2 |]);
  Alcotest.(check bool) "shuffled" true (Plan.is_permutation [| 2; 0; 1 |]);
  Alcotest.(check bool) "duplicate" false (Plan.is_permutation [| 0; 0; 2 |]);
  Alcotest.(check bool) "out of range" false (Plan.is_permutation [| 0; 3; 1 |]);
  Alcotest.(check bool) "negative" false (Plan.is_permutation [| 0; -1; 1 |]);
  Alcotest.(check bool) "empty" true (Plan.is_permutation [||])

let test_is_valid () =
  let q = Helpers.chain3 () in
  Alcotest.(check bool) "forward" true (Plan.is_valid q [| 0; 1; 2 |]);
  Alcotest.(check bool) "backward" true (Plan.is_valid q [| 2; 1; 0 |]);
  Alcotest.(check bool) "middle first" true (Plan.is_valid q [| 1; 0; 2 |]);
  Alcotest.(check bool) "cross product" false (Plan.is_valid q [| 0; 2; 1 |]);
  Alcotest.(check bool) "wrong length" false (Plan.is_valid q [| 0; 1 |]);
  Alcotest.(check bool) "not a permutation" false (Plan.is_valid q [| 0; 0; 1 |])

let test_inverse () =
  let perm = [| 2; 0; 3; 1 |] in
  let pos = Plan.inverse perm in
  Array.iteri (fun i r -> Alcotest.(check int) "inverse" i pos.(r)) perm

let test_concat () =
  Alcotest.(check (array int)) "concat" [| 2; 0; 1 |]
    (Plan.concat [ [| 2 |]; [| 0; 1 |] ])

let test_to_string () =
  Alcotest.(check string) "notation" "(3 0 2 1)" (Plan.to_string [| 3; 0; 2; 1 |]);
  Alcotest.(check bool) "equal" true (Plan.equal [| 1; 0 |] [| 1; 0 |]);
  Alcotest.(check bool) "not equal" false (Plan.equal [| 1; 0 |] [| 0; 1 |])

let prop_is_valid_matches_reference =
  Helpers.qcheck_case ~count:100
    ~name:"mask is_valid equals the array-marking reference"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:(2 + (qseed mod 10)) (900 + qseed) in
      let n = Ljqo_catalog.Query.n_relations q in
      let rng = Ljqo_stats.Rng.create pseed in
      let agrees p = Plan.is_valid q p = Plan_reference.is_valid q p in
      (* valid plans, arbitrary permutations, and corrupted arrays *)
      let valid = Random_plan.generate (Ljqo_stats.Rng.create pseed) q in
      let shuffled = Array.init n Fun.id in
      Ljqo_stats.Rng.shuffle_in_place rng shuffled;
      let dup = Array.copy valid in
      dup.(n - 1) <- dup.(0);
      let oob = Array.copy valid in
      oob.(n / 2) <- n + Ljqo_stats.Rng.int rng 5;
      let neg = Array.copy valid in
      neg.(n / 2) <- -1;
      List.for_all agrees
        [ valid; shuffled; dup; oob; neg; Array.sub valid 0 (n - 1); [||] ]
      && Plan.is_valid q valid)
    QCheck.(pair small_int small_int)

(* Same property past the two inline bitset words: is_valid takes the wide
   scratch-array walk there, which must agree with the reference on valid,
   shuffled and corrupted inputs alike. *)
let prop_is_valid_wide_matches_reference =
  Helpers.qcheck_case ~count:20
    ~name:"wide is_valid equals the array-marking reference (n > 126)"
    (fun (qseed, pseed) ->
      let n_joins = 127 + (qseed mod 40) in
      let q = Helpers.random_query ~n_joins (910 + qseed) in
      let n = Ljqo_catalog.Query.n_relations q in
      let rng = Ljqo_stats.Rng.create pseed in
      let agrees p = Plan.is_valid q p = Plan_reference.is_valid q p in
      let valid = Random_plan.generate (Ljqo_stats.Rng.create pseed) q in
      let shuffled = Array.init n Fun.id in
      Ljqo_stats.Rng.shuffle_in_place rng shuffled;
      let dup = Array.copy valid in
      dup.(n - 1) <- dup.(0);
      let oob = Array.copy valid in
      oob.(n / 2) <- n + Ljqo_stats.Rng.int rng 5;
      List.for_all agrees [ valid; shuffled; dup; oob; Array.sub valid 0 (n - 1) ]
      && Plan.is_valid q valid)
    QCheck.(pair small_int small_int)

let prop_inverse_roundtrip =
  Helpers.qcheck_case ~name:"inverse of inverse is the permutation"
    (fun seed ->
      let rng = Ljqo_stats.Rng.create seed in
      let n = 1 + Ljqo_stats.Rng.int rng 30 in
      let perm = Array.init n Fun.id in
      Ljqo_stats.Rng.shuffle_in_place rng perm;
      Plan.inverse (Plan.inverse perm) = perm)
    QCheck.small_int

let suite =
  [
    Alcotest.test_case "is_permutation" `Quick test_is_permutation;
    Alcotest.test_case "is_valid" `Quick test_is_valid;
    Alcotest.test_case "inverse" `Quick test_inverse;
    Alcotest.test_case "concat" `Quick test_concat;
    Alcotest.test_case "to_string/equal" `Quick test_to_string;
    prop_is_valid_matches_reference;
    prop_is_valid_wide_matches_reference;
    prop_inverse_roundtrip;
  ]

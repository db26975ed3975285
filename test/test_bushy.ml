open Ljqo_core.Bushy

let mem = Helpers.memory_model

(* The left-deep tree of a permutation. *)
let left_deep perm =
  match Array.to_list perm with
  | [] -> invalid_arg "left_deep: empty permutation"
  | first :: rest ->
    List.fold_left (fun acc r -> Join (acc, Leaf r)) (Leaf first) rest

let test_is_linear () =
  let bushy = Join (Join (Leaf 0, Leaf 1), Join (Leaf 2, Leaf 3)) in
  Alcotest.(check bool) "bushy not linear" false (is_linear bushy)

let test_is_valid () =
  let q = Helpers.chain3 () in
  Alcotest.(check bool) "left-deep valid" true
    (is_valid q (left_deep [| 0; 1; 2 |]));
  Alcotest.(check bool) "cross product invalid" false
    (is_valid q (Join (Join (Leaf 0, Leaf 2), Leaf 1)));
  Alcotest.(check bool) "missing relation invalid" false
    (is_valid q (Join (Leaf 0, Leaf 1)));
  Alcotest.(check bool) "duplicate relation invalid" false
    (is_valid q (Join (Join (Leaf 0, Leaf 1), Leaf 1)))

let test_linear_cost_close_to_plan_cost () =
  (* On a left-deep tree the bushy evaluator and the linear evaluator use
     the same step structure; sizes agree and costs agree up to the
     inner-distinct refinement. *)
  let q = Helpers.chain3 () in
  let linear = Ljqo_cost.Plan_cost.eval mem q [| 0; 1; 2 |] in
  let bushy = eval mem q (left_deep [| 0; 1; 2 |]) in
  Helpers.check_approx ~rel:1e-9 "same result size" linear.cards.(2) bushy.card;
  Alcotest.(check bool) "costs within 2x" true
    (bushy.cost < linear.total *. 2.0 && bushy.cost > linear.total /. 2.0)

let test_random_valid () =
  let q = Helpers.random_query ~n_joins:10 901 in
  for seed = 1 to 20 do
    let t = random (Ljqo_stats.Rng.create seed) q in
    Alcotest.(check bool) "random bushy valid" true (is_valid q t);
    Alcotest.(check int) "all relations" (Ljqo_catalog.Query.n_relations q) (n_leaves t)
  done

let test_random_rejects_disconnected () =
  match random (Ljqo_stats.Rng.create 1) (Helpers.disconnected ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected accepted"

let test_random_produces_bushy_shapes () =
  let q = Helpers.random_query ~n_joins:10 902 in
  let bushy_seen = ref false in
  for seed = 1 to 30 do
    if not (is_linear (random (Ljqo_stats.Rng.create seed) q)) then bushy_seen := true
  done;
  Alcotest.(check bool) "non-linear shapes occur" true !bushy_seen

let test_moves_preserve_leaves () =
  let q = Helpers.random_query ~n_joins:8 903 in
  let rng = Ljqo_stats.Rng.create 904 in
  let t = ref (random rng q) in
  for _ = 1 to 100 do
    let t' = random_move rng !t in
    Alcotest.(check (list int)) "same leaf set"
      (List.sort compare (relations !t))
      (List.sort compare (relations t'));
    if is_valid q t' then t := t'
  done

let test_improve_monotone () =
  (* One restart is one improvement run from the tree [random] draws first
     from [Rng.create seed]. *)
  let q = Helpers.random_query ~n_joins:8 905 in
  let start_cost = cost mem q (random (Ljqo_stats.Rng.create 906) q) in
  let t, c = optimize ~restarts:1 mem q ~seed:906 in
  Alcotest.(check bool) "improve never worsens" true (c <= start_cost +. 1e-9);
  Helpers.check_approx "returned cost matches tree" (cost mem q t) c;
  Alcotest.(check bool) "result valid" true (is_valid q t)

let test_optimize_beats_median_random () =
  let q = Helpers.random_query ~n_joins:10 907 in
  let _, best = optimize ~restarts:6 mem q ~seed:908 in
  let rng = Ljqo_stats.Rng.create 909 in
  let costs = Array.init 20 (fun _ -> cost mem q (random rng q)) in
  Alcotest.(check bool) "optimized beats median random" true
    (best <= Ljqo_stats.Summary.median costs)

let test_to_string () =
  let q = Helpers.chain3 () in
  Alcotest.(check string) "rendering" "((A B) C)"
    (to_string q (left_deep [| 0; 1; 2 |]))

let prop_moves_preserve_validity_of_leafset =
  Helpers.qcheck_case ~count:30 ~name:"move results are permutations of the leaves"
    (fun (qseed, mseed) ->
      let q = Helpers.random_query ~n_joins:7 qseed in
      let rng = Ljqo_stats.Rng.create mseed in
      let t = random rng q in
      let t' = random_move rng t in
      List.sort compare (relations t') = List.sort compare (relations t))
    QCheck.(pair small_int small_int)

let suite =
  [
    Alcotest.test_case "is_linear" `Quick test_is_linear;
    Alcotest.test_case "is_valid" `Quick test_is_valid;
    Alcotest.test_case "linear cost close to plan cost" `Quick
      test_linear_cost_close_to_plan_cost;
    Alcotest.test_case "random valid" `Quick test_random_valid;
    Alcotest.test_case "random rejects disconnected" `Quick
      test_random_rejects_disconnected;
    Alcotest.test_case "random produces bushy shapes" `Quick
      test_random_produces_bushy_shapes;
    Alcotest.test_case "moves preserve leaves" `Quick test_moves_preserve_leaves;
    Alcotest.test_case "improve monotone" `Quick test_improve_monotone;
    Alcotest.test_case "optimize beats median random" `Quick
      test_optimize_beats_median_random;
    Alcotest.test_case "to_string" `Quick test_to_string;
    prop_moves_preserve_validity_of_leafset;
  ]

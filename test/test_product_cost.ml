open Ljqo_cost

let mem = Helpers.memory_model

let test_set_cardinality () =
  let q = Helpers.chain3 () in
  let cards perm = (Product_cost.eval mem q perm).Plan_cost.cards in
  let c = cards [| 0; 1; 2 |] in
  Helpers.check_approx "singleton" 100.0 c.(0);
  (* A,B: 100*1000*0.01 *)
  Helpers.check_approx "pair" 1000.0 c.(1);
  (* all: 100*1000*10*0.01*0.05 *)
  Helpers.check_approx "full" 500.0 c.(2);
  (* disconnected pair: plain product *)
  Helpers.check_approx "cross pair" 1000.0 (cards [| 0; 2; 1 |]).(1)

let test_order_independent_cards () =
  (* Under the product estimator the final size is permutation-invariant. *)
  let q = Helpers.random_query ~n_joins:6 1101 in
  let p1 = Helpers.valid_random_plan q 1 in
  let p2 = Helpers.valid_random_plan q 2 in
  let n = Ljqo_catalog.Query.n_relations q in
  let e1 = Product_cost.eval mem q p1 and e2 = Product_cost.eval mem q p2 in
  Helpers.check_approx ~rel:1e-9 "final cards equal"
    e1.Plan_cost.cards.(n - 1)
    e2.Plan_cost.cards.(n - 1)

let test_differs_from_clamped () =
  (* Find a query/plan where clamping changes the estimate. *)
  let found = ref false in
  for seed = 1 to 20 do
    let q = Helpers.random_query ~n_joins:8 (1200 + seed) in
    let p = Helpers.valid_random_plan q seed in
    let a = Product_cost.total mem q p and b = Plan_cost.total mem q p in
    if not (Helpers.approx ~rel:1e-6 a b) then found := true
  done;
  Alcotest.(check bool) "clamping matters somewhere" true !found

let test_total_is_sum () =
  let q = Helpers.random_query ~n_joins:6 1102 in
  let p = Helpers.valid_random_plan q 3 in
  let e = Product_cost.eval mem q p in
  Helpers.check_approx ~rel:1e-9 "total = sum of steps" e.Plan_cost.total
    (Array.fold_left ( +. ) 0.0 e.Plan_cost.step_costs)

let prop_cards_floor =
  Helpers.qcheck_case ~count:40 ~name:"product estimator cards >= 1 and finite"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:7 qseed in
      let p = Helpers.valid_random_plan q pseed in
      let e = Product_cost.eval mem q p in
      Array.for_all (fun c -> c >= 1.0 && Float.is_finite c) e.Plan_cost.cards)
    QCheck.(pair small_int small_int)

let suite =
  [
    Alcotest.test_case "set cardinality" `Quick test_set_cardinality;
    Alcotest.test_case "order-independent cards" `Quick test_order_independent_cards;
    Alcotest.test_case "differs from clamped" `Quick test_differs_from_clamped;
    Alcotest.test_case "total is sum" `Quick test_total_is_sum;
    prop_cards_floor;
  ]

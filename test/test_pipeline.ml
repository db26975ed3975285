open Ljqo_catalog
open Ljqo_exec

let query_with_selections () =
  let relations =
    [|
      Helpers.rel ~id:0 ~card:2000 ~distinct:0.2 ~selections:[ 0.5 ] ();
      Helpers.rel ~id:1 ~card:3000 ~distinct:0.1 ~selections:[ 0.34; 0.5 ] ();
      Helpers.rel ~id:2 ~card:500 ~distinct:0.5 ();
    |]
  in
  let edges =
    [
      { Join_graph.u = 0; v = 1; selectivity = 0.005 };
      { Join_graph.u = 1; v = 2; selectivity = 0.005 };
    ]
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:3 edges)

let test_base_table_shape () =
  let q = query_with_selections () in
  let t = Pipeline.generate_base q ~rel:1 ~rng:(Ljqo_stats.Rng.create 1) in
  Alcotest.(check int) "base rows" 3000 t.base_rows;
  Alcotest.(check int) "two selection attrs" 2 (Array.length t.selection_attrs);
  Alcotest.(check int) "two join columns" 2 (List.length t.join_columns);
  List.iter
    (fun (_, col) -> Alcotest.(check int) "column length" 3000 (Array.length col))
    t.join_columns

let test_observed_selectivity_matches_model () =
  let q = query_with_selections () in
  (* relation 1: expected selectivity 0.34 * 0.5 = 0.17 *)
  let total = ref 0.0 in
  let trials = 15 in
  for seed = 1 to trials do
    let t = Pipeline.generate_base q ~rel:1 ~rng:(Ljqo_stats.Rng.create seed) in
    total := !total +. Pipeline.selectivity_observed q t
  done;
  let mean = !total /. float_of_int trials in
  if mean < 0.15 || mean > 0.19 then
    Alcotest.failf "selectivity off: expected ~0.17, got %.3f" mean

let test_select_filters_to_effective_cardinality () =
  let q = query_with_selections () in
  let total = ref 0 in
  let trials = 10 in
  for seed = 1 to trials do
    let t = Pipeline.generate_base q ~rel:0 ~rng:(Ljqo_stats.Rng.create seed) in
    total := !total + Relation_data.cardinality (Pipeline.select q t)
  done;
  let mean = float_of_int !total /. float_of_int trials in
  let expected = Query.cardinality q 0 in
  if mean < expected *. 0.9 || mean > expected *. 1.1 then
    Alcotest.failf "filtered size off: expected ~%.0f, got %.0f" expected mean

let test_no_selection_relation_unfiltered () =
  let q = query_with_selections () in
  let t = Pipeline.generate_base q ~rel:2 ~rng:(Ljqo_stats.Rng.create 5) in
  Alcotest.(check int) "all tuples survive" 500
    (Relation_data.cardinality (Pipeline.select q t));
  Helpers.check_approx "observed selectivity 1" 1.0 (Pipeline.selectivity_observed q t)

let test_one_tuple_floor () =
  let relations =
    [| Helpers.rel ~id:0 ~card:10 ~distinct:0.5 ~selections:[ 0.001 ] () |]
  in
  let q = Query.make ~relations ~graph:(Join_graph.make ~n:1 []) in
  let t = Pipeline.generate_base q ~rel:0 ~rng:(Ljqo_stats.Rng.create 3) in
  Alcotest.(check bool) "at least one tuple survives" true
    (Relation_data.cardinality (Pipeline.select q t) >= 1)

let test_prepare_runs_executor () =
  let q = query_with_selections () in
  let data = Pipeline.prepare q ~rng:(Ljqo_stats.Rng.create 7) in
  let result = Executor.run q ~data [| 2; 1; 0 |] in
  Alcotest.(check int) "pipeline joins execute" 3
    (List.length (Executor.cardinalities result))

let test_pipeline_consistent_with_analytic_generation () =
  (* Both data paths should give statistically similar join results. *)
  let q = query_with_selections () in
  let final ~prepare seed =
    let rng = Ljqo_stats.Rng.create seed in
    let data =
      if prepare then Pipeline.prepare q ~rng else Relation_data.generate_all q ~rng
    in
    (Executor.run q ~data [| 2; 1; 0 |]).Executor.row_count
  in
  let avg prepare =
    let t = ref 0 in
    for seed = 1 to 10 do
      t := !t + final ~prepare seed
    done;
    float_of_int !t /. 10.0
  in
  let a = avg true and b = avg false in
  let hi = Float.max a b and lo = Float.max 1.0 (Float.min a b) in
  if hi /. lo > 3.0 then
    Alcotest.failf "pipeline (%.1f) vs analytic (%.1f) diverge" a b

let suite =
  [
    Alcotest.test_case "base table shape" `Quick test_base_table_shape;
    Alcotest.test_case "observed selectivity matches model" `Quick
      test_observed_selectivity_matches_model;
    Alcotest.test_case "select filters to effective cardinality" `Quick
      test_select_filters_to_effective_cardinality;
    Alcotest.test_case "no selections, unfiltered" `Quick
      test_no_selection_relation_unfiltered;
    Alcotest.test_case "one tuple floor" `Quick test_one_tuple_floor;
    Alcotest.test_case "prepare feeds executor" `Quick test_prepare_runs_executor;
    Alcotest.test_case "pipeline vs analytic generation" `Slow
      test_pipeline_consistent_with_analytic_generation;
  ]

open Ljqo_querygen
open Ljqo_catalog

let gen ?(spec = Benchmark.default) ?(n_joins = 20) seed =
  Benchmark.generate_query spec ~n_joins ~rng:(Ljqo_stats.Rng.create seed)

let test_shape () =
  let q = gen 1 in
  Alcotest.(check int) "relation count" 21 (Query.n_relations q);
  Alcotest.(check bool) "at least the spanning joins" true (Query.n_joins q >= 20);
  Alcotest.(check bool) "connected" true (Query.is_connected q)

let test_identity_permutation_valid () =
  (* The paper's construction makes (1 2 ... N+1) valid. *)
  for seed = 1 to 20 do
    let q = gen seed in
    Alcotest.(check bool) "identity valid" true
      (Ljqo_core.Plan.is_valid q (Helpers.identity_plan (Query.n_relations q)))
  done

let test_default_cardinality_range () =
  for seed = 1 to 30 do
    let q = gen seed in
    for i = 0 to Query.n_relations q - 1 do
      let c = (Query.relation q i).Relation.base_cardinality in
      if c < 10 || c >= 10000 then Alcotest.failf "cardinality %d out of range" c
    done
  done

let test_selection_selectivities_from_list () =
  for seed = 1 to 20 do
    let q = gen seed in
    for i = 0 to Query.n_relations q - 1 do
      let r = Query.relation q i in
      Alcotest.(check bool) "0..2 selections" true
        (List.length r.Relation.selection_selectivities <= 2);
      List.iter
        (fun s ->
          if not (List.mem s Benchmark.selection_selectivity_values) then
            Alcotest.failf "selectivity %g not from the paper's list" s)
        r.Relation.selection_selectivities
    done
  done

let test_edge_selectivity_rule () =
  let q = gen 3 in
  List.iter
    (fun (e : Join_graph.edge) ->
      let expected =
        1.0
        /. Float.max (Query.distinct_values q e.u) (Query.distinct_values q e.v)
      in
      Helpers.check_approx "J = 1/max(D_u,D_v)" expected e.selectivity)
    (Join_graph.edges (Query.graph q))

let test_variations_count_and_names () =
  Alcotest.(check int) "nine variations" 9 (List.length Benchmark.variations);
  Alcotest.(check bool) "index 0 is default" true (Benchmark.by_index 0 == Benchmark.default);
  List.iteri
    (fun i spec ->
      Alcotest.(check bool)
        (Printf.sprintf "by_index %d" (i + 1))
        true
        (Benchmark.by_index (i + 1) == spec))
    Benchmark.variations;
  match Benchmark.by_index 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "index 10 accepted"

let test_cardinality_variations () =
  let x10 = Benchmark.by_index 1 in
  let high = ref false in
  for seed = 1 to 30 do
    let q = gen ~spec:x10 seed in
    for i = 0 to Query.n_relations q - 1 do
      let c = (Query.relation q i).Relation.base_cardinality in
      if c >= 10000 then high := true;
      if c < 10 || c >= 100000 then Alcotest.failf "x10 cardinality %d out of range" c
    done
  done;
  Alcotest.(check bool) "larger range actually used" true !high

let test_dense_variation_has_more_edges () =
  let avg spec =
    let total = ref 0 in
    for seed = 1 to 15 do
      total := !total + Query.n_joins (gen ~spec ~n_joins:30 seed)
    done;
    float_of_int !total /. 15.0
  in
  let dflt = avg Benchmark.default in
  let dense = avg (Benchmark.by_index 7) in
  Alcotest.(check bool)
    (Printf.sprintf "cutoff 0.1 denser: %.1f > %.1f" dense dflt)
    true (dense > dflt +. 5.0)

let max_degree q =
  let g = Query.graph q in
  let m = ref 0 in
  for v = 0 to Query.n_relations q - 1 do
    m := max !m (Join_graph.degree g v)
  done;
  !m

let test_star_vs_chain_bias () =
  let avg_max_degree spec =
    let total = ref 0 in
    for seed = 1 to 20 do
      total := !total + max_degree (gen ~spec ~n_joins:30 seed)
    done;
    float_of_int !total /. 20.0
  in
  let star = avg_max_degree (Benchmark.by_index 8) in
  let chain = avg_max_degree (Benchmark.by_index 9) in
  Alcotest.(check bool)
    (Printf.sprintf "star hubs: %.1f > %.1f" star chain)
    true (star > chain +. 3.0)

let test_chain_bias_mostly_path () =
  (* chain-biased graphs should have small max degree *)
  let q = gen ~spec:(Benchmark.by_index 9) ~n_joins:30 5 in
  Alcotest.(check bool) "small hub" true (max_degree q <= 6)

let test_n_joins_validation () =
  match gen ~n_joins:0 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_joins=0 accepted"

let prop_generated_queries_connected =
  Helpers.qcheck_case ~count:40 ~name:"every benchmark generates connected queries"
    (fun (seed, bidx) ->
      let spec = Benchmark.by_index (abs bidx mod 10) in
      let q = gen ~spec ~n_joins:(5 + (abs seed mod 20)) seed in
      Query.is_connected q)
    QCheck.(pair small_int small_int)

let suite =
  [
    Alcotest.test_case "shape" `Quick test_shape;
    Alcotest.test_case "identity permutation valid" `Quick test_identity_permutation_valid;
    Alcotest.test_case "default cardinality range" `Quick test_default_cardinality_range;
    Alcotest.test_case "selection selectivities from list" `Quick
      test_selection_selectivities_from_list;
    Alcotest.test_case "edge selectivity rule" `Quick test_edge_selectivity_rule;
    Alcotest.test_case "variations count" `Quick test_variations_count_and_names;
    Alcotest.test_case "cardinality variations" `Quick test_cardinality_variations;
    Alcotest.test_case "dense variation" `Quick test_dense_variation_has_more_edges;
    Alcotest.test_case "star vs chain bias" `Quick test_star_vs_chain_bias;
    Alcotest.test_case "chain bias mostly path" `Quick test_chain_bias_mostly_path;
    Alcotest.test_case "n_joins validation" `Quick test_n_joins_validation;
    prop_generated_queries_connected;
  ]

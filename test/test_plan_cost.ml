open Ljqo_catalog
open Ljqo_cost

let mem = Helpers.memory_model
let adaptive = (module Join_method.Adaptive_memory : Cost_model.S)

let test_chain3_forward () =
  (* Hand-computed for chain3 (see Helpers): A |><| B then |><| C. *)
  let q = Helpers.chain3 () in
  let e = Plan_cost.eval mem q [| 0; 1; 2 |] in
  Helpers.check_approx "first card" 100.0 e.cards.(0);
  Helpers.check_approx "card after B" 1000.0 e.cards.(1);
  Helpers.check_approx "card after C" 500.0 e.cards.(2);
  Helpers.check_approx "step 1 cost" 2600.0 e.step_costs.(1);
  Helpers.check_approx "step 2 cost" 2010.0 e.step_costs.(2);
  Helpers.check_approx "total" 4610.0 e.total;
  Alcotest.(check int) "est steps" 3 e.est_steps

let test_chain3_backward () =
  let q = Helpers.chain3 () in
  let e = Plan_cost.eval mem q [| 2; 1; 0 |] in
  Helpers.check_approx "card after B" 500.0 e.cards.(1);
  Helpers.check_approx "card after A" 500.0 e.cards.(2);
  Helpers.check_approx "total" 3160.0 e.total

let test_order_matters () =
  let q = Helpers.chain3 () in
  let fwd = Plan_cost.total mem q [| 0; 1; 2 |] in
  let bwd = Plan_cost.total mem q [| 2; 1; 0 |] in
  Alcotest.(check bool) "different orders, different costs" true (fwd <> bwd)

let test_cross_product_cost () =
  (* Permutation with a gap: C is not joined to A, so step 1 is a cross. *)
  let q = Helpers.chain3 () in
  let e = Plan_cost.eval mem q [| 0; 2; 1 |] in
  Helpers.check_approx "cross card" 1000.0 e.cards.(1);
  (* nested loops 100*10 + output 1000 = 2000 *)
  Helpers.check_approx "cross cost" 2000.0 e.step_costs.(1)

let clamp_query () =
  let relations =
    [|
      Helpers.rel ~id:0 ~name:"A" ~card:10 ~distinct:1.0 ();
      Helpers.rel ~id:1 ~name:"B" ~card:1000 ~distinct:1.0 ();
      Helpers.rel ~id:2 ~name:"C" ~card:1000 ~distinct:0.01 ();
    |]
  in
  let edges =
    [
      { Join_graph.u = 0; v = 1; selectivity = 0.001 };
      { Join_graph.u = 1; v = 2; selectivity = 0.001 };
    ]
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:3 edges)

let test_distinct_clamping () =
  (* After A |><| B the intermediate has 10 tuples, far below B's 1000
     distinct values; the B-C predicate can then only be as selective as
     1/10 per C-side value group.  Unclamped product would give 10 tuples;
     clamping gives 1000. *)
  let q = clamp_query () in
  let e = Plan_cost.eval mem q [| 0; 1; 2 |] in
  Helpers.check_approx "card after B" 10.0 e.cards.(1);
  Helpers.check_approx "clamped card after C" 1000.0 e.cards.(2)

let test_edge_selectivity_no_clamp () =
  let q = Helpers.chain3 () in
  (* big outer: stored selectivity unchanged *)
  Helpers.check_approx "unclamped" 0.01
    (Plan_cost_reference.edge_selectivity q ~outer_card:1e6 ~k:0 ~r:1 0.01)

let test_edge_selectivity_capped_at_one () =
  let q = clamp_query () in
  let s = Plan_cost_reference.edge_selectivity q ~outer_card:1.0 ~k:1 ~r:2 0.001 in
  Alcotest.(check bool) "capped" true (s <= 1.0)

let test_card_ceiling () =
  (* A pathological query cannot push cards to infinity. *)
  let relations =
    Array.init 30 (fun id -> Helpers.rel ~id ~card:1_000_000 ~distinct:0.0001 ())
  in
  let edges =
    List.init 29 (fun i -> { Join_graph.u = i; v = i + 1; selectivity = 1.0 })
  in
  let q = Query.make ~relations ~graph:(Join_graph.make ~n:30 edges) in
  let e = Plan_cost.eval mem q (Array.init 30 Fun.id) in
  Alcotest.(check bool) "finite total" true (Float.is_finite e.total);
  Array.iter
    (fun c -> Alcotest.(check bool) "finite card" true (Float.is_finite c))
    e.cards

let test_reference_final_cardinality () =
  let q = Helpers.chain3 () in
  (* 100 * 1000 * 10 * 0.01 * 0.05 = 500 *)
  Helpers.check_approx "reference final" 500.0 (Plan_cost.reference_final_cardinality q)

let test_lower_bound_value () =
  let q = Helpers.chain3 () in
  (* memory scans: 100 + 1000 + 10 *)
  Helpers.check_approx "lower bound" 1110.0 (Plan_cost.lower_bound mem q)

let prop_lower_bound_admissible =
  Helpers.qcheck_case ~count:60 ~name:"lower bound never exceeds a valid plan's cost"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:7 qseed in
      let plan = Helpers.valid_random_plan q pseed in
      let lb = Plan_cost.lower_bound Helpers.memory_model q in
      let lbd = Plan_cost.lower_bound Helpers.disk_model q in
      Plan_cost.total Helpers.memory_model q plan >= lb -. 1e-6
      && Plan_cost.total Helpers.disk_model q plan >= lbd -. 1e-6)
    QCheck.(pair small_int small_int)

let prop_total_is_sum_of_steps =
  Helpers.qcheck_case ~count:60 ~name:"total equals the sum of step costs"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:7 qseed in
      let plan = Helpers.valid_random_plan q pseed in
      let e = Plan_cost.eval Helpers.memory_model q plan in
      Helpers.approx ~rel:1e-9 e.total (Array.fold_left ( +. ) 0.0 e.step_costs))
    QCheck.(pair small_int small_int)

let prop_cards_at_least_one =
  Helpers.qcheck_case ~count:60 ~name:"estimated cards are >= 1"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:7 qseed in
      let plan = Helpers.valid_random_plan q pseed in
      let e = Plan_cost.eval Helpers.memory_model q plan in
      Array.for_all (fun c -> c >= 1.0) e.cards)
    QCheck.(pair small_int small_int)

(* ---- Bit identity with the oracle ([Plan_cost_reference]) ---- *)

let same_eval (a : Plan_cost.eval) (b : Plan_cost.eval) =
  Array.length a.cards = Array.length b.cards
  && Array.for_all2 Helpers.same_bits a.cards b.cards
  && Array.for_all2 Helpers.same_bits a.step_costs b.step_costs
  && Helpers.same_bits a.total b.total
  && a.est_steps = b.est_steps

(* [Ok] the evaluation, or [Error ()] when it raised [Invalid_argument]. *)
let outcome f = match f () with e -> Ok e | exception Invalid_argument _ -> Error ()

(* The same query with a seeded quarter of its edges made always-false. *)
let with_zero_edges rng q =
  let n = Query.n_relations q in
  let edges =
    List.map
      (fun (e : Join_graph.edge) ->
        if Ljqo_stats.Rng.int rng 4 = 0 then { e with selectivity = 0.0 } else e)
      (Join_graph.edges (Query.graph q))
  in
  Query.make ~relations:(Array.init n (Query.relation q))
    ~graph:(Join_graph.make ~n edges)

(* Valid plans; shuffles (cross products); arrays of any length with repeated
   ids; and arrays with one id out of range, which both sides must refuse
   with [Invalid_argument]. *)
let arrays rng q =
  let n = Query.n_relations q in
  let module R = Ljqo_stats.Rng in
  let valid = Ljqo_core.Random_plan.generate rng q in
  let shuffled = Array.init n Fun.id in
  R.shuffle_in_place rng shuffled;
  let repeats = Array.init (1 + R.int rng (2 * n)) (fun _ -> R.int rng n) in
  let out_of_range = Array.copy valid in
  out_of_range.(R.int rng n) <- (if R.bool rng then n + R.int rng 3 else -1 - R.int rng 3);
  [ valid; shuffled; repeats; out_of_range ]

let prop_eval_matches_oracle =
  Helpers.qcheck_case ~count:150
    ~name:"eval bit-identical to the bitset-prefix oracle (all specs, N = 1..200)"
    (fun (spec_idx, size, seed) ->
      let rng = Ljqo_stats.Rng.create seed in
      let spec = Ljqo_querygen.Benchmark.by_index spec_idx in
      let n_joins = 1 + size in
      let q = Ljqo_querygen.Benchmark.generate_query spec ~n_joins ~rng in
      let q = if Ljqo_stats.Rng.bool rng then with_zero_edges rng q else q in
      let model =
        match Ljqo_stats.Rng.int rng 4 with
        | 0 -> mem
        | 1 -> Helpers.disk_model
        | 2 -> Chaos.wrap ~rate:0.2 ~seed mem
        | _ -> Chaos.wrap ~rate:0.2 ~seed Helpers.disk_model
      in
      let calibration =
        match Ljqo_stats.Rng.int rng 4 with
        | 0 -> Some { Plan_cost.sel_factor = 1.7 }
        | 1 -> Some { Plan_cost.sel_factor = 1e-3 }
        | 2 -> Some { Plan_cost.sel_factor = 1e3 }
        | _ -> None
      in
      List.for_all
        (fun perm ->
          match
            ( outcome (fun () -> Plan_cost.eval ?calibration model q perm),
              outcome (fun () -> Plan_cost_reference.eval ?calibration model q perm) )
          with
          | Ok a, Ok b -> same_eval a b
          | Error (), Error () -> true
          | _ -> false)
        (arrays rng q))
    QCheck.(triple (int_bound 9) (int_bound 199) int)

(* Out-of-range ids are refused before the cost model is called at all. *)
let test_eval_checks_ids_first () =
  let q = Helpers.chain3 () in
  let calls = ref 0 in
  let counting = Helpers.counting_model calls in
  List.iter
    (fun perm ->
      (match Plan_cost.eval counting q perm with
      | _ -> Alcotest.fail "out-of-range id accepted"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "no join costed" 0 !calls)
    [ [| 0; 1; 3 |]; [| 0; 1; -1 |]; [| 7 |] ]

(* Allocation contract for [eval]: nothing for any of its [n - 1] steps —
   the cost model reads its inputs from, and writes its cost to, the
   stepper's own flat record — three arrays of [n + 1] words (positions,
   cards, step costs), and 21 words of small records per call: the stepper
   (8) and its record (6), the result (5) and its boxed total (2).  At any
   degree, under the memory, the disk and the adaptive join-method model;
   exact on one domain. *)
let test_eval_allocation () =
  List.iter
    (fun (label, model, spec, n_joins) ->
      let rng = Ljqo_stats.Rng.create 42 in
      let q = Ljqo_querygen.Benchmark.generate_query spec ~n_joins ~rng in
      let plan = Ljqo_core.Random_plan.generate rng q in
      let n = Array.length plan in
      let words = Helpers.minor_words_per_call (fun () -> Plan_cost.eval model q plan) in
      let extra = words -. float_of_int (3 * (n + 1)) in
      if extra <> 21.0 then
        Alcotest.failf "%s: %.1f minor words per call of %d steps, %.1f beyond the \
                        arrays, not 21"
          label words (n - 1) extra)
    [
      ("memory, default N=50", mem, Ljqo_querygen.Benchmark.default, 50);
      ("memory, graph-dense N=200", mem, Helpers.graph_dense, 200);
      ("disk, default N=50", Helpers.disk_model, Ljqo_querygen.Benchmark.default, 50);
      ("disk, graph-dense N=200", Helpers.disk_model, Helpers.graph_dense, 200);
      ("adaptive, default N=50", adaptive, Ljqo_querygen.Benchmark.default, 50);
      ("adaptive, graph-dense N=200", adaptive, Helpers.graph_dense, 200);
    ]

let suite =
  [
    Alcotest.test_case "chain3 forward (hand computed)" `Quick test_chain3_forward;
    Alcotest.test_case "chain3 backward (hand computed)" `Quick test_chain3_backward;
    Alcotest.test_case "order matters" `Quick test_order_matters;
    Alcotest.test_case "cross product step" `Quick test_cross_product_cost;
    Alcotest.test_case "distinct-value clamping" `Quick test_distinct_clamping;
    Alcotest.test_case "no clamp on large outer" `Quick test_edge_selectivity_no_clamp;
    Alcotest.test_case "selectivity capped at 1" `Quick test_edge_selectivity_capped_at_one;
    Alcotest.test_case "cardinality ceiling" `Quick test_card_ceiling;
    Alcotest.test_case "reference final cardinality" `Quick test_reference_final_cardinality;
    Alcotest.test_case "lower bound value" `Quick test_lower_bound_value;
    prop_lower_bound_admissible;
    prop_total_is_sum_of_steps;
    prop_cards_at_least_one;
    prop_eval_matches_oracle;
    Alcotest.test_case "eval checks ids before costing" `Quick
      test_eval_checks_ids_first;
    Alcotest.test_case "eval allocates 21 words per call, 0 per step" `Quick
      test_eval_allocation;
  ]

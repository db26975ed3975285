open Ljqo_cost

let input ~outer ~inner ~distinct ~output () : Cost_model.join_input =
  {
    outer_card = outer;
    inner_card = inner;
    inner_distinct = distinct;
    output_card = output;
    cost = Float.nan;
  }

let test_names () =
  Alcotest.(check (list string)) "names" [ "hash"; "sort-merge"; "nested-loop" ]
    (List.map Join_method.name Join_method.all)

let test_hash_matches_memory_model () =
  let i = input ~outer:100.0 ~inner:1000.0 ~distinct:100.0 ~output:1000.0 () in
  Memory_model.join_cost ~is_first:false ~is_cross:false i;
  Helpers.check_approx "hash = Memory_model" i.cost
    (Join_method.cost Join_method.Hash_join ~is_cross:false i)

let test_applicability () =
  let cross = input ~outer:10.0 ~inner:10.0 ~distinct:5.0 ~output:100.0 () in
  Alcotest.(check bool) "NL on cross" true
    (Join_method.applicable Join_method.Nested_loop_join ~is_cross:true);
  Alcotest.(check bool) "hash not on cross" false
    (Join_method.applicable Join_method.Hash_join ~is_cross:true);
  Alcotest.(check bool) "hash cost infinite on cross" true
    (Join_method.cost Join_method.Hash_join ~is_cross:true cross = infinity)

let test_nested_loop_wins_tiny_inputs () =
  (* 2x2 join: hashing overhead dominates. *)
  let i = input ~outer:2.0 ~inner:2.0 ~distinct:2.0 ~output:2.0 () in
  let m, _ = Join_method.cheapest ~is_cross:false i in
  Alcotest.(check string) "tiny join" "nested-loop" (Join_method.name m)

let test_hash_wins_large_equijoin () =
  let i = input ~outer:100000.0 ~inner:100000.0 ~distinct:100000.0 ~output:100000.0 () in
  let m, _ = Join_method.cheapest ~is_cross:false i in
  Alcotest.(check string) "large equijoin" "hash" (Join_method.name m)

let test_sort_merge_beats_hash_on_skew () =
  (* Very low inner distinct count makes hash bucket chains enormous;
     sort-merge does not care. *)
  let i = input ~outer:100000.0 ~inner:100000.0 ~distinct:2.0 ~output:100000.0 () in
  let hash = Join_method.cost Join_method.Hash_join ~is_cross:false i in
  let sm = Join_method.cost Join_method.Sort_merge_join ~is_cross:false i in
  Alcotest.(check bool) "sort-merge wins under skew" true (sm < hash)

let test_cheapest_is_min () =
  let i = input ~outer:500.0 ~inner:700.0 ~distinct:70.0 ~output:900.0 () in
  let _, c = Join_method.cheapest ~is_cross:false i in
  List.iter
    (fun m ->
      Alcotest.(check bool) "cheapest <= each" true
        (c <= Join_method.cost m ~is_cross:false i))
    Join_method.all

let test_adaptive_model_never_worse_than_hash_only () =
  let q = Helpers.random_query ~n_joins:8 801 in
  for pseed = 1 to 10 do
    let p = Helpers.valid_random_plan q pseed in
    let hash_only = Plan_cost.total Helpers.memory_model q p in
    let adaptive =
      Plan_cost.total (module Join_method.Adaptive_memory : Cost_model.S) q p
    in
    (* Adaptive hash params equal Memory_model's, so per-step min can only
       be cheaper. *)
    Alcotest.(check bool) "adaptive <= hash-only" true (adaptive <= hash_only +. 1e-6)
  done

let test_annotate () =
  let q = Helpers.chain3 () in
  let ann = Join_method.annotate q [| 2; 1; 0 |] in
  Alcotest.(check int) "one entry per join" 2 (List.length ann);
  List.iter
    (fun (i, _, c) ->
      Alcotest.(check bool) "positions 1.." true (i >= 1 && i <= 2);
      Alcotest.(check bool) "finite cost" true (Float.is_finite c))
    ann

let test_adaptive_optimization_end_to_end () =
  let q = Helpers.random_query ~n_joins:10 802 in
  let model = (module Join_method.Adaptive_memory : Cost_model.S) in
  let r =
    Ljqo_core.Optimizer.optimize ~method_:Ljqo_core.Methods.IAI ~model ~ticks:50_000
      ~seed:3 q
  in
  Alcotest.(check bool) "valid plan under adaptive model" true
    (Ljqo_core.Plan.is_valid q r.plan)

let suite =
  [
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "hash matches memory model" `Quick test_hash_matches_memory_model;
    Alcotest.test_case "applicability" `Quick test_applicability;
    Alcotest.test_case "nested loop wins tiny inputs" `Quick
      test_nested_loop_wins_tiny_inputs;
    Alcotest.test_case "hash wins large equijoin" `Quick test_hash_wins_large_equijoin;
    Alcotest.test_case "sort-merge beats hash on skew" `Quick
      test_sort_merge_beats_hash_on_skew;
    Alcotest.test_case "cheapest is min" `Quick test_cheapest_is_min;
    Alcotest.test_case "adaptive never worse than hash-only" `Quick
      test_adaptive_model_never_worse_than_hash_only;
    Alcotest.test_case "annotate" `Quick test_annotate;
    Alcotest.test_case "adaptive optimization end to end" `Quick
      test_adaptive_optimization_end_to_end;
  ]

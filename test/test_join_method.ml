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

(* The selection [cheapest] replaced: a fold over (method, cost) pairs that
   starts from nested loops and lets hash, then sort-merge, take over on a
   strict [<]. *)
let cheapest_by_fold ?params ~is_cross j =
  List.fold_left
    (fun (bm, bc) m ->
      let c = Join_method.cost ?params m ~is_cross j in
      if c < bc then (m, c) else (bm, bc))
    (Join_method.Nested_loop_join, Join_method.cost ?params Join_method.Nested_loop_join ~is_cross j)
    [ Join_method.Hash_join; Join_method.Sort_merge_join ]

(* Same method and same cost bits as the fold, from [cheapest] and from the
   adaptive model's [join_cost], on every combination of awkward inputs: ties
   (all-zero per-tuple costs make every method cost the output), NaN,
   infinity, zero and the log2 cut at 2. *)
let test_cheapest_matches_fold () =
  let tie =
    {
      Join_method.hash = { Memory_model.c_build = 0.0; c_probe = 0.0; c_compare = 0.0; c_output = 1.0 };
      c_sort = 0.0;
      c_merge = 0.0;
      c_loop_compare = 0.0;
      c_output = 1.0;
    }
  in
  let values = [| Float.nan; infinity; 0.0; 1.0; 2.0; 3.0; 70.0; 1e6 |] in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  (* Input [k] takes one octal digit of [k] per field. *)
  for k = 0 to 4095 do
    let v d = values.((k lsr (3 * d)) land 7) in
    let i = input ~outer:(v 0) ~inner:(v 1) ~distinct:(v 2) ~output:(v 3) () in
    let show is_cross =
      Printf.sprintf "outer %g inner %g distinct %g output %g%s" (v 0) (v 1) (v 2) (v 3)
        (if is_cross then " (cross)" else "")
    in
    List.iter
      (fun is_cross ->
        List.iter
          (fun (label, params) ->
            let m, c = Join_method.cheapest ?params ~is_cross i in
            let m', c' = cheapest_by_fold ?params ~is_cross i in
            if m <> m' || not (same_bits c c') then
              Alcotest.failf "%s params, %s: %s %h, the fold picks %s %h" label
                (show is_cross) (Join_method.name m) c (Join_method.name m') c')
          [ ("default", None); ("tie", Some tie) ];
        Join_method.Adaptive_memory.join_cost ~is_first:false ~is_cross i;
        let _, c = cheapest_by_fold ~is_cross i in
        if not (same_bits i.cost c) then
          Alcotest.failf "%s: join_cost wrote %h, the fold's cost is %h" (show is_cross)
            i.cost c)
      [ false; true ]
  done

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
    Alcotest.test_case "cheapest matches the fold on ties and NaN" `Quick
      test_cheapest_matches_fold;
    Alcotest.test_case "adaptive never worse than hash-only" `Quick
      test_adaptive_model_never_worse_than_hash_only;
    Alcotest.test_case "annotate" `Quick test_annotate;
    Alcotest.test_case "adaptive optimization end to end" `Quick
      test_adaptive_optimization_end_to_end;
  ]

open Ljqo_catalog

let test_accessors () =
  let q = Helpers.chain3 () in
  Alcotest.(check int) "relations" 3 (Query.n_relations q);
  Alcotest.(check int) "joins" 2 (Query.n_joins q);
  Helpers.check_approx "cardinality" 1000.0 (Query.cardinality q 1);
  Helpers.check_approx "distinct" 100.0 (Query.distinct_values q 1);
  Alcotest.(check int) "degree" 2 (Query.degree q 1);
  Alcotest.(check bool) "connected" true (Query.is_connected q);
  Helpers.check_approx "total tuples" 1110.0 (Query.total_base_tuples q)

let test_validation () =
  let relations = [| Helpers.rel ~id:0 ~card:10 ~distinct:0.5 () |] in
  (match Query.make ~relations ~graph:(Join_graph.make ~n:2 []) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size mismatch accepted");
  let bad_ids = [| Helpers.rel ~id:1 ~card:10 ~distinct:0.5 () |] in
  match Query.make ~relations:bad_ids ~graph:(Join_graph.make ~n:1 []) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad ids accepted"

let test_induced () =
  let q = Helpers.triangle () in
  let sub, back = Query.induced q [ 2; 0 ] in
  Alcotest.(check int) "sub size" 2 (Query.n_relations sub);
  Alcotest.(check (array int)) "back map" [| 2; 0 |] back;
  (* relation 0 of sub is old relation 2 *)
  Helpers.check_approx "stats preserved" (Query.cardinality q 2)
    (Query.cardinality sub 0);
  Alcotest.(check int) "edge preserved" 1 (Query.n_joins sub);
  Helpers.check_approx "edge selectivity" 0.02
    (Ljqo_catalog.Join_graph.selectivity_exn (Query.graph sub) 0 1)

let test_induced_drops_external_edges () =
  let q = Helpers.chain3 () in
  let sub, _ = Query.induced q [ 0; 2 ] in
  Alcotest.(check int) "no edges survive" 0 (Query.n_joins sub);
  Alcotest.(check bool) "disconnected" false (Query.is_connected sub)

let test_induced_validation () =
  let q = Helpers.chain3 () in
  (match Query.induced q [ 0; 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted");
  match Query.induced q [ 5 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range accepted"

let prop_induced_full_is_identity =
  Helpers.qcheck_case ~count:40 ~name:"inducing all relations preserves the query"
    (fun seed ->
      let q = Helpers.random_query ~n_joins:6 seed in
      let n = Query.n_relations q in
      let sub, back = Query.induced q (List.init n Fun.id) in
      back = Array.init n Fun.id
      && Query.n_joins sub = Query.n_joins q
      && List.for_all
           (fun i ->
             Helpers.approx (Query.cardinality q i) (Query.cardinality sub i))
           (List.init n Fun.id))
    QCheck.small_int

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "induced subquery" `Quick test_induced;
    Alcotest.test_case "induced drops external edges" `Quick
      test_induced_drops_external_edges;
    Alcotest.test_case "induced validation" `Quick test_induced_validation;
    prop_induced_full_is_identity;
  ]

open Ljqo_core

let contains s needle =
  let n = String.length s and m = String.length needle in
  let rec go i = i + m <= n && (String.sub s i m = needle || go (i + 1)) in
  go 0

let test_render_plan () =
  let q = Helpers.chain3 () in
  let out = Plan_render.render_plan q [| 0; 1; 2 |] in
  List.iter
    (fun needle ->
      if not (contains out needle) then
        Alcotest.failf "missing %S in:\n%s" needle out)
    [ "A [100 rows]"; "B [1000 rows]"; "C [10 rows]"; "|><|"; "└──"; "├──" ];
  (* the outer tree nests two joins *)
  Alcotest.(check int) "two join nodes" 2
    (List.length
       (String.split_on_char '\n' out |> List.filter (fun l -> contains l "|><|")))

let test_render_plan_costs () =
  let q = Helpers.chain3 () in
  let out = Plan_render.render_plan q [| 0; 1; 2 |] in
  (* hand-computed step costs from test_plan_cost *)
  Alcotest.(check bool) "cost 2600 appears" true (contains out "2600");
  Alcotest.(check bool) "cost 2010 appears" true (contains out "2010")

let test_single_relation_render () =
  let relations = [| Helpers.rel ~id:0 ~card:10 ~distinct:0.5 () |] in
  let q =
    Ljqo_catalog.Query.make ~relations ~graph:(Ljqo_catalog.Join_graph.make ~n:1 [])
  in
  let out = Plan_render.render_plan q [| 0 |] in
  Alcotest.(check bool) "single leaf" true (contains out "R0 [10 rows]")

let suite =
  [
    Alcotest.test_case "render plan" `Quick test_render_plan;
    Alcotest.test_case "render plan costs" `Quick test_render_plan_costs;
    Alcotest.test_case "single relation" `Quick test_single_relation_render;
  ]

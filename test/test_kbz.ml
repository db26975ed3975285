open Ljqo_core
open Ljqo_catalog

let test_weighting_indexing () =
  Alcotest.(check (list int)) "indices are 3,4,5" [ 3; 4; 5 ]
    (List.map Kbz.weighting_index Kbz.all_weightings)

let test_spanning_tree_properties () =
  let q = Helpers.random_query ~n_joins:12 81 in
  List.iter
    (fun w ->
      let t = Kbz.spanning_tree q w in
      Alcotest.(check bool) "is a tree" true (Join_graph.is_tree t);
      Alcotest.(check int) "covers all relations" (Query.n_relations q)
        (Join_graph.n t);
      (* every tree edge exists in the original graph with same selectivity *)
      List.iter
        (fun (e : Join_graph.edge) ->
          match Join_graph.selectivity (Query.graph q) e.u e.v with
          | Some s -> Helpers.check_approx "selectivity preserved" s e.selectivity
          | None -> Alcotest.fail "tree edge not in graph")
        (Join_graph.edges t))
    Kbz.all_weightings

let test_rejects_disconnected () =
  let q = Helpers.disconnected () in
  match Kbz.spanning_tree q Kbz.default_weighting with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected query accepted"

let test_ordering_valid_and_rooted () =
  let q = Helpers.random_query ~n_joins:10 82 in
  let tree = Kbz.spanning_tree q Kbz.default_weighting in
  for root = 0 to Query.n_relations q - 1 do
    let p = Kbz.optimal_for_root q ~tree ~root in
    Alcotest.(check int) "root first" root p.(0);
    Alcotest.(check bool) "valid w.r.t. full graph" true (Plan.is_valid q p);
    (* precedence: every node appears after its tree parent *)
    let pos = Plan.inverse p in
    let rec check_subtree parent v =
      List.iter
        (fun (w, _) ->
          if w <> parent then begin
            if pos.(w) < pos.(v) then Alcotest.fail "child before parent";
            check_subtree v w
          end)
        (Join_graph.neighbors tree v)
    in
    check_subtree (-1) root
  done

(* Brute force: minimum ASI cost over all precedence-respecting orders. *)
let brute_force_best q ~tree ~root =
  let n = Query.n_relations q in
  let placed = Array.make n false in
  let best = ref infinity in
  let order = Array.make n root in
  let rec go i =
    if i = n then begin
      let c = Kbz.asi_cost q ~tree (Array.copy order) in
      if c < !best then best := c
    end
    else
      for v = 0 to n - 1 do
        if not placed.(v) then begin
          let parent_placed =
            List.exists (fun (w, _) -> placed.(w)) (Join_graph.neighbors tree v)
          in
          if parent_placed then begin
            placed.(v) <- true;
            order.(i) <- v;
            go (i + 1);
            placed.(v) <- false
          end
        end
      done
  in
  placed.(root) <- true;
  go 1;
  !best

let prop_algorithm_r_optimal =
  Helpers.qcheck_case ~count:40
    ~name:"algorithm R minimizes the ASI objective on rooted trees"
    (fun seed ->
      let q = Helpers.random_query ~n_joins:5 seed in
      let tree = Kbz.spanning_tree q Kbz.default_weighting in
      let root = seed mod Query.n_relations q in
      let r_plan = Kbz.optimal_for_root q ~tree ~root in
      let r_cost = Kbz.asi_cost q ~tree r_plan in
      let best = brute_force_best q ~tree ~root in
      Helpers.approx ~rel:1e-9 r_cost best)
    QCheck.small_int

let test_asi_cost_hand_example () =
  (* chain3 rooted at A: T_B = 0.01*1000 = 10, C_B = 0.5*1000/100 = 5;
     T_C = 0.05*10 = 0.5, C_C = 0.5*10/10 = 0.5.
     Order (A B C): 5 + 10*0.5 = 10.  Order (A ... ) only one precedence
     order exists on a chain rooted at the end. *)
  let q = Helpers.chain3 () in
  let tree = Query.graph q in
  Helpers.check_approx "asi cost" 10.0 (Kbz.asi_cost q ~tree [| 0; 1; 2 |])

let test_source_yields_all_roots () =
  let q = Helpers.random_query ~n_joins:6 83 in
  let ev =
    Evaluator.create ~query:q ~model:Helpers.memory_model ~ticks:1_000_000 ()
  in
  let source = Kbz.make_source ev in
  let count = ref 0 in
  let rec drain () =
    match source () with
    | Some p ->
      Alcotest.(check bool) "valid" true (Plan.is_valid q p);
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "one ordering per root" (Query.n_relations q) !count

let test_tree_validation () =
  let q = Helpers.triangle () in
  (* the full triangle graph is not a tree *)
  match Kbz.optimal_for_root q ~tree:(Query.graph q) ~root:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cyclic graph accepted as tree"

let suite =
  [
    Alcotest.test_case "weighting indexing" `Quick test_weighting_indexing;
    Alcotest.test_case "spanning tree properties" `Quick test_spanning_tree_properties;
    Alcotest.test_case "rejects disconnected" `Quick test_rejects_disconnected;
    Alcotest.test_case "ordering valid and rooted" `Quick test_ordering_valid_and_rooted;
    Alcotest.test_case "asi cost hand example" `Quick test_asi_cost_hand_example;
    Alcotest.test_case "source yields all roots" `Quick test_source_yields_all_roots;
    Alcotest.test_case "tree validation" `Quick test_tree_validation;
    prop_algorithm_r_optimal;
  ]

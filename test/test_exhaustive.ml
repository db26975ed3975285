open Ljqo_core

let mem = Helpers.memory_model

(* Oracle: enumerate every valid permutation and cost it. *)
let brute_force_optimum query =
  let n = Ljqo_catalog.Query.n_relations query in
  let best = ref infinity in
  let perm = Array.make n (-1) in
  let used = Array.make n false in
  let rec go depth =
    if depth = n then begin
      let c = Ljqo_cost.Plan_cost.total mem query perm in
      if c < !best then best := c
    end
    else
      for r = 0 to n - 1 do
        if not used.(r) then begin
          perm.(depth) <- r;
          used.(r) <- true;
          let ok =
            depth = 0
            || List.exists
                 (fun (o, _) -> Array.exists (fun x -> x = o) (Array.sub perm 0 depth))
                 (Ljqo_catalog.Join_graph.neighbors (Ljqo_catalog.Query.graph query) r)
          in
          if ok then go (depth + 1);
          used.(r) <- false;
          perm.(depth) <- -1
        end
      done
  in
  go 0;
  !best

let test_matches_brute_force () =
  for seed = 1 to 8 do
    let q = Helpers.random_query ~n_joins:5 (700 + seed) in
    let r = Exhaustive.optimize mem q in
    Helpers.check_approx
      (Printf.sprintf "optimum (seed %d)" seed)
      (brute_force_optimum q) r.cost;
    Alcotest.(check bool) "plan valid" true (Plan.is_valid q r.plan);
    Helpers.check_approx "cost matches its plan"
      (Ljqo_cost.Plan_cost.total mem q r.plan)
      r.cost
  done

let test_no_method_beats_exact () =
  for seed = 1 to 5 do
    let q = Helpers.random_query ~n_joins:7 (720 + seed) in
    let exact = Exhaustive.optimize mem q in
    List.iter
      (fun m ->
        let r = Optimizer.optimize ~method_:m ~model:mem ~ticks:50_000 ~seed q in
        Alcotest.(check bool)
          (Printf.sprintf "%s >= exact (seed %d)" (Methods.name m) seed)
          true
          (r.cost >= exact.cost -. 1e-6))
      Methods.[ II; IAI; AGI; SA ]
  done

let test_too_large () =
  let q = Helpers.random_query ~n_joins:20 741 in
  match Exhaustive.optimize mem q with
  | exception Exhaustive.Too_large { n = 21; max_relations = 16 } -> ()
  | exception Exhaustive.Too_large { n; max_relations } ->
    Alcotest.failf "wrong payload: n=%d cap=%d" n max_relations
  | _ -> Alcotest.fail "oversized query accepted"

let test_rejects_disconnected () =
  match Exhaustive.optimize mem (Helpers.disconnected ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected accepted"

let test_count_valid_plans () =
  (* chain of 3: orders (012),(210),(102),(120) -> 4 valid, wait:
     valid = every prefix connected: (0 1 2), (1 0 2), (1 2 0), (2 1 0) *)
  let q = Helpers.chain3 () in
  Alcotest.(check int) "chain3 count" 4 (Exhaustive.count_valid_plans q);
  (* triangle: every permutation valid: 3! = 6 *)
  Alcotest.(check int) "triangle count" 6
    (Exhaustive.count_valid_plans (Helpers.triangle ()));
  (* limit respected *)
  Alcotest.(check int) "limit" 2
    (Exhaustive.count_valid_plans ~limit:2 (Helpers.triangle ()))

let prop_exact_lower_bounds_methods =
  Helpers.qcheck_case ~count:15 ~name:"exact optimum <= any valid random plan"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:6 qseed in
      let exact = Exhaustive.optimize mem q in
      let p = Helpers.valid_random_plan q pseed in
      Ljqo_cost.Plan_cost.total mem q p >= exact.cost -. 1e-6)
    QCheck.(pair small_int small_int)

let suite =
  [
    Alcotest.test_case "matches brute force" `Quick test_matches_brute_force;
    Alcotest.test_case "no method beats exact" `Slow test_no_method_beats_exact;
    Alcotest.test_case "too large rejected" `Quick test_too_large;
    Alcotest.test_case "rejects disconnected" `Quick test_rejects_disconnected;
    Alcotest.test_case "count valid plans" `Quick test_count_valid_plans;
    prop_exact_lower_bounds_methods;
  ]

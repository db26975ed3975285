(* Cross-module integration tests: generator -> optimizer -> executor, and
   the full QDL pipeline. *)

open Ljqo_core
open Ljqo_catalog

let mem = Helpers.memory_model

let test_optimizer_beats_random_plans () =
  (* On hard benchmark queries, an IAI run at 9 N^2 should be no worse than
     the best of 30 random plans — on every query. *)
  for seed = 1 to 6 do
    let q = Helpers.random_query ~n_joins:15 (400 + seed) in
    let ticks = Budget.ticks_for_limit ~t_factor:9.0 ~n_joins:15 () in
    let r = Optimizer.optimize ~method_:Methods.IAI ~model:mem ~ticks ~seed q in
    let random_best =
      List.fold_left
        (fun acc s ->
          Float.min acc
            (Ljqo_cost.Plan_cost.total mem q (Helpers.valid_random_plan q s)))
        infinity
        (List.init 30 (fun i -> i + 1))
    in
    Alcotest.(check bool)
      (Printf.sprintf "optimized <= best random (seed %d)" seed)
      true
      (r.cost <= random_best +. 1e-9)
  done

let test_full_pipeline_qdl () =
  (* Generate -> print -> parse -> optimize -> execute. *)
  let q0 = Helpers.small_exec_query ~n_joins:4 42 in
  let text = Ljqo_qdl.Printer.to_string q0 in
  let q = Ljqo_qdl.Parser.parse text in
  let ticks = Budget.ticks_for_limit ~t_factor:9.0 ~n_joins:4 () in
  let r = Optimizer.optimize ~method_:Methods.IAI ~model:mem ~ticks ~seed:1 q in
  Alcotest.(check bool) "valid plan" true (Plan.is_valid q r.plan);
  let data = Ljqo_exec.Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.create 2) in
  let result = Ljqo_exec.Executor.run q ~data r.plan in
  Alcotest.(check int) "executed rows = nested-loop oracle"
    (Ljqo_exec.Executor.nested_loop_oracle q ~data r.plan)
    result.row_count

let test_estimates_track_actuals () =
  (* On gentle queries the (conservative) estimator should bound the actual
     sizes most of the time and stay within a couple of orders of
     magnitude. *)
  let within = ref 0 in
  let total = ref 0 in
  for seed = 1 to 10 do
    let q = Helpers.small_exec_query ~n_joins:4 (500 + seed) in
    let data =
      Ljqo_exec.Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.create seed)
    in
    let plan = Helpers.valid_random_plan q seed in
    match Ljqo_exec.Executor.run ~max_rows:500_000 q ~data plan with
    | result ->
      let est = (Ljqo_cost.Plan_cost.eval mem q plan).cards in
      List.iteri
        (fun i actual ->
          incr total;
          let e = est.(i) in
          let a = Float.max 1.0 (float_of_int actual) in
          if e /. a < 100.0 && a /. e < 100.0 then incr within)
        (Ljqo_exec.Executor.cardinalities result)
    | exception Ljqo_exec.Executor.Result_too_large _ -> ()
  done;
  let frac = float_of_int !within /. float_of_int (max 1 !total) in
  if frac < 0.8 then
    Alcotest.failf "estimates within 100x only %.0f%% of the time" (frac *. 100.0)

let test_all_methods_agree_on_trivial_query () =
  (* Two relations: only two plans exist; every method must find the best. *)
  let relations =
    [|
      Helpers.rel ~id:0 ~card:1000 ~distinct:0.1 ();
      Helpers.rel ~id:1 ~card:10 ~distinct:1.0 ();
    |]
  in
  let q =
    Query.make ~relations
      ~graph:(Join_graph.make ~n:2 [ { Join_graph.u = 0; v = 1; selectivity = 0.01 } ])
  in
  let best =
    Float.min
      (Ljqo_cost.Plan_cost.total mem q [| 0; 1 |])
      (Ljqo_cost.Plan_cost.total mem q [| 1; 0 |])
  in
  List.iter
    (fun m ->
      let r = Optimizer.optimize ~method_:m ~model:mem ~ticks:5_000 ~seed:3 q in
      Helpers.check_approx (Methods.name m ^ " finds the optimum") best r.cost)
    Methods.all

let test_disk_and_memory_prefer_selective_plans () =
  (* The two models are different but both must prefer a plan that joins the
     selective pair first on an obvious example. *)
  let q = Helpers.chain3 () in
  List.iter
    (fun model ->
      let good = Ljqo_cost.Plan_cost.total model q [| 2; 1; 0 |] in
      let cross = Ljqo_cost.Plan_cost.total model q [| 0; 2; 1 |] in
      Alcotest.(check bool) "valid beats cross" true (good < cross))
    [ mem; Helpers.disk_model ]

let test_benchmark_workload_optimizes_end_to_end () =
  let w = Ljqo_querygen.Workload.make ~ns:[ 10 ] ~per_n:3 Ljqo_querygen.Benchmark.default in
  Array.iter
    (fun (e : Ljqo_querygen.Workload.entry) ->
      let ticks = Budget.ticks_for_limit ~t_factor:1.5 ~n_joins:e.n_joins () in
      let r =
        Optimizer.optimize ~method_:Methods.AGI ~model:mem ~ticks ~seed:e.seed e.query
      in
      Alcotest.(check bool) "valid" true (Plan.is_valid e.query r.plan))
    w.entries

(* Headline for the growable-width bitsets: a 200-relation query runs the
   search methods end to end through the masked/fused kernels — there is no
   fallback path left to take — and returns a valid plan. *)
let test_wide_query_end_to_end () =
  let n = 200 in
  let relations =
    Array.init n (fun id ->
        Helpers.rel ~id ~card:(10 + (id mod 91)) ~distinct:0.5 ())
  in
  let chain =
    Query.make ~relations
      ~graph:
        (Join_graph.make ~n
           (List.init (n - 1) (fun i ->
                { Join_graph.u = i; v = i + 1; selectivity = 0.01 })))
  in
  let star =
    Query.make ~relations
      ~graph:
        (Join_graph.make ~n
           (List.init (n - 1) (fun i ->
                { Join_graph.u = 0; v = i + 1; selectivity = 0.005 })))
  in
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun m ->
          let r =
            Optimizer.optimize ~method_:m ~model:mem ~ticks:300_000 ~seed:5 q
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s on %s-200 returns a valid plan" (Methods.name m)
               qname)
            true
            (Plan.is_valid q r.plan))
        [ Methods.II; Methods.SA; Methods.AGI; Methods.Portfolio ])
    [ ("chain", chain); ("star", star) ]

let suite =
  [
    Alcotest.test_case "optimizer beats random plans" `Slow
      test_optimizer_beats_random_plans;
    Alcotest.test_case "wide query (N = 200) end to end" `Slow
      test_wide_query_end_to_end;
    Alcotest.test_case "full QDL pipeline" `Quick test_full_pipeline_qdl;
    Alcotest.test_case "estimates track actuals" `Slow test_estimates_track_actuals;
    Alcotest.test_case "all methods agree on trivial query" `Quick
      test_all_methods_agree_on_trivial_query;
    Alcotest.test_case "both models prefer selective plans" `Quick
      test_disk_and_memory_prefer_selective_plans;
    Alcotest.test_case "workload optimizes end to end" `Quick
      test_benchmark_workload_optimizes_end_to_end;
  ]

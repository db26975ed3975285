(* Test runner: one alcotest section per module; the model's and the
   checkpoint record's sealed-file corruption cases run in the sections of
   the modules that own those formats. *)

let () =
  Alcotest.run "ljqo"
    [
      ("rng", Test_rng.suite);
      ("dist", Test_dist.suite);
      ("summary", Test_summary.suite);
      ("scaled-cost", Test_scaled_cost.suite);
      ("relation", Test_relation.suite);
      ("bitset", Test_bitset.suite);
      ("join-graph", Test_join_graph.suite);
      ("query", Test_query.suite);
      ("cost-models", Test_cost_models.suite);
      ("plan-cost", Test_plan_cost.suite);
      ("plan", Test_plan.suite);
      ("budget", Test_budget.suite);
      ("evaluator", Test_evaluator.suite);
      ("move", Test_move.suite);
      ("search-state", Test_search_state.suite);
      ("neighborhood", Test_neighborhood.suite);
      ("random-plan", Test_random_plan.suite);
      ("iterative-improvement", Test_iterative_improvement.suite);
      ("simulated-annealing", Test_simulated_annealing.suite);
      ("augmentation", Test_augmentation.suite);
      ("kbz", Test_kbz.suite);
      ("local-improvement", Test_local_improvement.suite);
      ("methods", Test_methods.suite);
      ("optimizer", Test_optimizer.suite);
      ("golden", Test_golden.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("join-method", Test_join_method.suite);
      ("bushy", Test_bushy.suite);
      ("space-stats", Test_space_stats.suite);
      ("product-cost", Test_product_cost.suite);
      ("dp", Test_dp.suite);
      ("baselines", Test_baselines.suite);
      ("two-phase", Test_two_phase.suite);
      ("portfolio", Test_portfolio.suite);
      ("plan-render", Test_plan_render.suite);
      ("benchmark", Test_benchmark.suite);
      ("workload", Test_workload.suite);
      ("workload-io", Test_workload_io.suite);
      ("graph-metrics", Test_graph_metrics.suite);
      ("exec", Test_exec.suite);
      ("pipeline", Test_pipeline.suite);
      ("qdl", Test_qdl.suite);
      ("histogram", Test_histogram.suite);
      ("sql", Test_sql.suite);
      ("report", Test_report.suite);
      ("integration", Test_integration.suite);
      ("stress", Test_stress.suite);
      ("harness", Test_harness.suite @ Test_sealed.harness_cases);
      ("obs", Test_obs.suite);
      ("jsonv", Test_jsonv.suite);
      ("sealed", Test_sealed.suite);
      ("service", Test_service.suite);
      ("server", Test_server.suite);
      ("feedback", Test_feedback.suite);
    ]

(* Figure 6: IAI, AGI and II at small time limits (0.3 N^2 .. 1.8 N^2), where
   the paper locates the AGI-to-IAI crossover (around 1.8 N^2). *)

open Ljqo_core
open Ljqo_querygen

let tfactors = [ 0.3; 0.6; 0.9; 1.2; 1.5; 1.8 ]

let run ?kappa ?deadline ?checkpoint ?(methods = Methods.[ IAI; AGI; II ])
    ~(scale : Ljqo_harness.Driver.scale) ~seed ~csv_dir () =
  let workload =
    Workload.make ~ns:Workload.large_ns ~per_n:scale.per_n ~seed Benchmark.default
  in
  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  let outcome =
    Ljqo_harness.Driver.run_experiment ?kappa ?deadline ?checkpoint
      ~run_label:"fig6" ~seed ~workload ~methods ~model ~tfactors
      ~replicates:scale.replicates ()
  in
  let title =
    Printf.sprintf "Figure 6: small time limits (%d queries, N=10..100)"
      outcome.n_queries
  in
  let table = Ljqo_harness.Driver.outcome_table ~title outcome in
  Ljqo_report.Table.print table;
  print_newline ();
  print_string (Ljqo_harness.Driver.outcome_chart ~title outcome);
  Option.iter
    (fun dir -> Ljqo_report.Table.save_csv table (Filename.concat dir "fig6.csv"))
    csv_dir

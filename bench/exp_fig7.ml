(* Figure 7: the top five methods under the disk-based cost model — the
   paper's check that the method ordering is insensitive to the cost
   model. *)

open Ljqo_core
open Ljqo_querygen

let tfactors = [ 0.3; 0.75; 1.5; 3.0; 6.0; 9.0 ]

let run ?kappa ?deadline ?checkpoint ?(methods = Methods.top_five)
    ~(scale : Ljqo_harness.Driver.scale) ~seed ~csv_dir () =
  let workload = Workload.make ~per_n:scale.per_n ~seed Benchmark.default in
  let model = (module Ljqo_cost.Disk_model : Ljqo_cost.Cost_model.S) in
  let outcome =
    Ljqo_harness.Driver.run_experiment ?kappa ?deadline ?checkpoint
      ~run_label:"fig7" ~seed ~workload ~methods ~model
      ~tfactors ~replicates:scale.replicates ()
  in
  let title =
    Printf.sprintf "Figure 7: disk cost model (%d queries, N=10..50)"
      outcome.n_queries
  in
  let table = Ljqo_harness.Driver.outcome_table ~title outcome in
  Ljqo_report.Table.print table;
  print_newline ();
  print_string (Ljqo_harness.Driver.outcome_chart ~title outcome);
  Option.iter
    (fun dir -> Ljqo_report.Table.save_csv table (Filename.concat dir "fig7.csv"))
    csv_dir

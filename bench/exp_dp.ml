(* Extension experiment: the System-R baseline the paper's introduction
   rules out.  Two questions: (a) how fast does exact dynamic programming
   blow up with N (the O(2^N) motivation), and (b) when DP is feasible, how
   does its plan — optimal under the product estimator — compare with IAI
   under the library's clamped estimator? *)

open Ljqo_core
open Ljqo_querygen

let run ?kappa ~(scale : Ljqo_harness.Driver.scale) ~seed ~csv_dir () =
  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  let per_n = max 2 (scale.per_n / 2) in
  let table =
    Ljqo_report.Table.create
      ~title:
        (Printf.sprintf
           "System-R DP baseline (%d queries per N; medians)" per_n)
      ~columns:[ "subsets"; "DP time (ms)"; "DP/IAI (clamped cost)" ]
  in
  List.iter
    (fun n_joins ->
      let workload = Workload.make ~ns:[ n_joins ] ~per_n ~seed Benchmark.default in
      let subsets = ref [] in
      let times = ref [] in
      let ratios = ref [] in
      Array.iter
        (fun (entry : Workload.entry) ->
          let t0 = Unix.gettimeofday () in
          let dp = Dp.optimize model entry.query in
          times := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !times;
          subsets := float_of_int dp.subsets_explored :: !subsets;
          let ticks =
            Budget.ticks_for_limit ?ticks_per_unit:kappa ~t_factor:9.0 ~n_joins ()
          in
          let iai =
            Optimizer.optimize ~method_:Methods.IAI ~model ~ticks
              ~seed:(seed + entry.seed) entry.query
          in
          ratios := (dp.clamped_cost /. iai.cost) :: !ratios)
        workload.Workload.entries;
      let med l = Ljqo_stats.Summary.median (Array.of_list l) in
      Ljqo_report.Table.add_row table
        ~label:(Printf.sprintf "N=%d" n_joins)
        ~cells:
          [
            Printf.sprintf "%.0f" (med !subsets);
            Printf.sprintf "%.2f" (med !times);
            Printf.sprintf "%.3f" (med !ratios);
          ])
    [ 8; 10; 12; 14; 16; 18 ];
  Ljqo_report.Table.print table;
  print_endline
    "(beyond N~20 the subset table no longer fits in memory: the paper's point)";
  Option.iter
    (fun dir -> Ljqo_report.Table.save_csv table (Filename.concat dir "dp.csv"))
    csv_dir

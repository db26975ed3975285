(* Table 1: comparison of the five chooseNext criteria in the augmentation
   heuristic.  Each criterion is run as a pure constructive heuristic (its
   states generated start-by-start and evaluated); the best state within the
   time limit is scored against the best known plan at 9 N^2. *)

open Ljqo_core
open Ljqo_querygen

let tfactors = [ 1.5; 3.0; 6.0; 9.0 ]

let run ?kappa ~(scale : Ljqo_harness.Driver.scale) ~seed ~csv_dir () =
  let workload =
    Workload.make ~per_n:scale.per_n ~seed Benchmark.default
  in
  let states =
    List.map
      (fun crit query ~charge ->
        let remaining = ref (Augmentation.starts query) in
        fun () ->
          match !remaining with
          | [] -> None
          | start :: rest ->
            remaining := rest;
            Some (Augmentation.generate ~charge query crit ~start))
      Augmentation.all_criteria
  in
  let labels =
    List.map
      (fun c -> string_of_int (Augmentation.criterion_index c))
      Augmentation.all_criteria
  in
  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  let averages =
    Ljqo_harness.Driver.heuristic_state_experiment ?kappa ~seed ~workload ~model ~tfactors ~states
      ()
  in
  let table =
    Ljqo_report.Table.create
      ~title:
        (Printf.sprintf
           "Table 1: chooseNext criteria in augmentation (avg scaled cost, %d queries)"
           (Workload.size workload))
      ~columns:(List.map (Printf.sprintf "criterion %s") labels)
  in
  List.iteri
    (fun ti t ->
      Ljqo_report.Table.add_float_row table
        ~label:(Printf.sprintf "%gN^2" t)
        (List.mapi (fun si _ -> averages.(si).(ti)) labels))
    tfactors;
  Ljqo_report.Table.print table;
  Option.iter
    (fun dir -> Ljqo_report.Table.save_csv table (Filename.concat dir "table1.csv"))
    csv_dir

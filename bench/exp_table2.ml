(* Table 2: comparison of spanning-tree edge weightings (the paper's criteria
   3-5) in the KBZ heuristic.  Each weighting yields algorithm G's spanning
   tree; algorithm R's ordering for successive roots forms the state
   stream. *)

open Ljqo_core
open Ljqo_querygen

let tfactors = [ 1.5; 3.0; 6.0; 9.0 ]

let run ?kappa ~(scale : Ljqo_harness.Driver.scale) ~seed ~csv_dir () =
  let workload = Workload.make ~per_n:scale.per_n ~seed Benchmark.default in
  let states =
    List.map
      (fun weighting query ~charge ->
        let tree = lazy (Kbz.spanning_tree ~charge query weighting) in
        let roots = ref (Augmentation.starts query) in
        fun () ->
          match !roots with
          | [] -> None
          | root :: rest ->
            roots := rest;
            Some (Kbz.optimal_for_root ~charge query ~tree:(Lazy.force tree) ~root))
      Kbz.all_weightings
  in
  let labels =
    List.map (fun w -> string_of_int (Kbz.weighting_index w)) Kbz.all_weightings
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
           "Table 2: spanning-tree weightings in KBZ (avg scaled cost, %d queries)"
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
    (fun dir -> Ljqo_report.Table.save_csv table (Filename.concat dir "table2.csv"))
    csv_dir

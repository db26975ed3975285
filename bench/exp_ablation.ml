(* Ablation experiments over the calibration decisions DESIGN.md documents:
   the move-set locality, the II patience factor, and the adaptive
   (multi-join-method) cost model.  Each reports the IAI/II quality under
   the altered configuration at a small and a large time limit. *)

open Ljqo_core
open Ljqo_querygen

let tfactors = [ 0.75; 9.0 ]

let mixes =
  [
    ("adjacent-heavy (default)", Move.default_mix);
    ("uniform", { Move.p_swap = 0.34; p_adjacent_swap = 0.33; p_insert = 0.33 });
    ("long-range", { Move.p_swap = 0.5; p_adjacent_swap = 0.0; p_insert = 0.5 });
  ]

let patience_factors = [ 2; 4; 8 ]

let run ?kappa ?deadline ?checkpoint ?(methods = Methods.[ IAI; II ])
    ~(scale : Ljqo_harness.Driver.scale) ~seed ~csv_dir () =
  let per_n = max 2 (scale.per_n / 2) in
  let workload = Workload.make ~per_n ~seed Benchmark.default in
  (* Each call is its own checkpointable unit — the run_label keeps their
     files apart even though they share the workload and seed. *)
  let run_with ~run_label config model =
    Ljqo_harness.Driver.run_experiment ?kappa ?deadline ?checkpoint
      ~run_label:("ablation-" ^ run_label) ~config ~seed ~workload ~methods
      ~model ~tfactors ~replicates:1 ()
  in
  let memory = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  let adaptive = (module Ljqo_cost.Join_method.Adaptive_memory : Ljqo_cost.Cost_model.S) in

  let columns =
    List.concat_map
      (fun t -> List.map (fun m -> Printf.sprintf "%s@%gN^2" (Methods.name m) t) methods)
      tfactors
  in
  let add_row table label (o : Ljqo_harness.Driver.outcome) =
    let cells =
      List.concat
        (List.mapi
           (fun ti _ -> List.mapi (fun mi _ -> o.averages.(mi).(ti)) methods)
           tfactors)
    in
    Ljqo_report.Table.add_float_row table ~label cells
  in

  (* 1. move-set locality *)
  let t1 =
    Ljqo_report.Table.create
      ~title:"Ablation: move-set locality (avg scaled cost)" ~columns
  in
  List.iteri
    (fun i (label, mix) ->
      let config =
        {
          Methods.default_config with
          ii_params = { Iterative_improvement.default_params with mix };
          sa_params = { Simulated_annealing.default_params with mix };
        }
      in
      add_row t1 label
        (run_with ~run_label:(Printf.sprintf "mix%d" i) config memory))
    mixes;
  Ljqo_report.Table.print t1;
  print_newline ();

  (* 2. patience factor *)
  let t2 =
    Ljqo_report.Table.create ~title:"Ablation: II patience factor" ~columns
  in
  List.iter
    (fun pf ->
      let config =
        {
          Methods.default_config with
          ii_params =
            { Iterative_improvement.default_params with patience_factor = pf };
        }
      in
      add_row t2
        (Printf.sprintf "patience %dN" pf)
        (run_with ~run_label:(Printf.sprintf "patience%d" pf) config memory))
    patience_factors;
  Ljqo_report.Table.print t2;
  print_newline ();

  (* 3. cost model: hash-only vs adaptive multi-method *)
  let t3 =
    Ljqo_report.Table.create
      ~title:"Ablation: hash-only vs adaptive join methods" ~columns
  in
  add_row t3 "hash-only"
    (run_with ~run_label:"model-hash" Methods.default_config memory);
  add_row t3 "adaptive"
    (run_with ~run_label:"model-adaptive" Methods.default_config adaptive);
  Ljqo_report.Table.print t3;

  Option.iter
    (fun dir ->
      Ljqo_report.Table.save_csv t1 (Filename.concat dir "ablation_moves.csv");
      Ljqo_report.Table.save_csv t2 (Filename.concat dir "ablation_patience.csv");
      Ljqo_report.Table.save_csv t3 (Filename.concat dir "ablation_model.csv"))
    csv_dir

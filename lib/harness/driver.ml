open Ljqo_core
open Ljqo_querygen
module Obs = Ljqo_obs.Obs

let log_src = Logs.Src.create "ljqo.driver" ~doc:"experiment driver"

module Log = (val Logs.src_log log_src)

type scale = { per_n : int; replicates : int }

let default_scale = { per_n = 10; replicates = 2 }

let paper_scale = { per_n = 50; replicates = 2 }

type outcome = {
  methods : Methods.t list;
  tfactors : float list;
  averages : float array array;
  outlier_fractions : float array array;
  n_queries : int;
  n_crashed : int;
  n_timed_out : int;
  n_run_timeouts : int;
  crashes : Guard.failure list;
}

(* The label keying one (query, method, replicate) run's trajectory in the
   Obs trajectory table, and in the bench's --trajectories dump. *)
let trajectory_label ~index ~method_ ~replicate =
  Printf.sprintf "q%d.%s.r%d" index (Methods.name method_) replicate

let checkpoints_for ?kappa ~tfactors ~n_joins () =
  List.map
    (fun t -> Budget.ticks_for_limit ?ticks_per_unit:kappa ~t_factor:t ~n_joins ())
    tfactors

let max_budget ?kappa ~n_joins () =
  Budget.ticks_for_limit ?ticks_per_unit:kappa ~t_factor:9.0 ~n_joins ()

let run_seed ~seed ~query_seed ~replicate ~method_index =
  (* Mix the coordinates into a reproducible, well-spread seed. *)
  seed + (query_seed * 1009) + (replicate * 9176867) + (method_index * 277)

(* Configuration fingerprint binding a checkpoint file to one experiment: any
   input that changes the per-query numbers must appear here, so a resume can
   never silently mix results from different runs. *)
let fingerprint ?kappa ?config ~seed ~deadline ~workload ~methods ~model ~tfactors
    ~replicates () =
  let module M = (val model : Ljqo_cost.Cost_model.S) in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "seed=%d;kappa=%s;replicates=%d;model=%s;" seed
    (match kappa with None -> "-" | Some k -> string_of_int k)
    replicates M.name;
  add "deadline=%s;" (match deadline with None -> "-" | Some d -> Printf.sprintf "%h" d);
  add "config=%d;" (Hashtbl.hash config);
  List.iter (fun m -> add "m=%s;" (Methods.name m)) methods;
  List.iter (fun t -> add "t=%h;" t) tfactors;
  add "queries=%d;" (Array.length workload.Workload.entries);
  Array.iter
    (fun (e : Workload.entry) -> add "q=%d,%d;" e.n_joins e.seed)
    workload.Workload.entries;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run_experiment ?kappa ?config ?(seed = 1) ?deadline ?checkpoint
    ?(run_label = "experiment") ~workload ~methods ~model ~tfactors ~replicates ()
    =
  let tfactors = List.sort_uniq compare tfactors in
  let n_methods = List.length methods in
  let n_factors = List.length tfactors in
  let entries = workload.Workload.entries in
  (* Per query (independent, hence parallelizable): the averaged-replicate
     scaled cost of each method at each checkpoint, plus how many of its runs
     were cut short by the wall-clock deadline. *)
  let per_entry (entry : Workload.entry) : Checkpoint.record =
    let n_joins = entry.n_joins in
    let checkpoints = checkpoints_for ?kappa ~tfactors ~n_joins () in
    let ticks = max_budget ?kappa ~n_joins () in
    let timeouts = ref 0 in
    (* curves.(mi).(rep).(ti) = cost at checkpoint; final9.(mi).(rep) *)
    let curves =
      List.mapi
        (fun mi m ->
          List.init replicates (fun rep ->
              (* The run label keys this (query, method, replicate) run's
                 trajectory; it is also the natural span name. *)
              let label =
                trajectory_label ~index:entry.index ~method_:m ~replicate:rep
              in
              let r =
                Obs.with_run label @@ fun () ->
                Obs.span "run"
                  ~fields:
                    [
                      ("query", Obs.I entry.index);
                      ("method", Obs.S (Methods.name m));
                      ("replicate", Obs.I rep);
                    ]
                @@ fun () ->
                Optimizer.optimize ?config ~checkpoints ?deadline ~method_:m
                  ~model ~ticks
                  ~seed:(run_seed ~seed ~query_seed:entry.seed ~replicate:rep ~method_index:mi)
                  entry.query
              in
              if r.timed_out then incr timeouts;
              (List.map snd r.checkpoints, r.cost)))
        methods
    in
    let best9 =
      List.fold_left
        (fun acc per_method ->
          List.fold_left (fun acc (_, final) -> Float.min acc final) acc per_method)
        infinity curves
    in
    let out = Array.make_matrix n_methods n_factors 0.0 in
    List.iteri
      (fun mi per_method ->
        let sums = Array.make n_factors 0.0 in
        List.iter
          (fun (costs, _) ->
            List.iteri (fun ti c -> sums.(ti) <- sums.(ti) +. (c /. best9)) costs)
          per_method;
        Array.iteri
          (fun ti s -> out.(mi).(ti) <- s /. float_of_int replicates)
          sums)
      curves;
    { Checkpoint.timeouts = !timeouts; out }
  in
  let store =
    Option.map
      (fun { Checkpoint.dir; resume } ->
        let fingerprint =
          fingerprint ?kappa ?config ~seed ~deadline ~workload ~methods ~model
            ~tfactors ~replicates ()
        in
        let path = Filename.concat dir (run_label ^ ".ckpt") in
        Checkpoint.open_store ~path ~fingerprint ~resume ())
      checkpoint
  in
  let guarded (entry : Workload.entry) =
    match Option.bind store (fun s -> Checkpoint.completed s entry.index) with
    | Some record -> Guard.Completed record
    | None ->
      let g =
        Guard.run ~query_id:entry.index (fun () ->
            Obs.with_phase Obs.Driver (fun () ->
                Obs.span "query"
                  ~fields:
                    [ ("index", Obs.I entry.index); ("n_joins", Obs.I entry.n_joins) ]
                  (fun () -> per_entry entry)))
      in
      (match (g, store) with
      | Guard.Completed record, Some s -> Checkpoint.record s ~index:entry.index record
      | _ -> ());
      if Obs.tracing () then
        Obs.trace "query"
          [ ("index", Obs.I entry.index);
            ("n_joins", Obs.I entry.n_joins);
            ( "outcome",
              Obs.S
                (match g with
                | Guard.Completed _ -> "completed"
                | Guard.Crashed _ -> "crashed"
                | Guard.Timed_out _ -> "timed_out") ) ];
      g
  in
  let results = Ljqo_stats.Parallel.map_array guarded entries in
  Option.iter Checkpoint.close store;
  let scaled = Array.init n_methods (fun _ -> Array.make n_factors []) in
  let n_crashed = ref 0 and n_timed_out = ref 0 and n_run_timeouts = ref 0 in
  let crashes = ref [] in
  Array.iter
    (function
      | Guard.Completed { Checkpoint.timeouts; out } ->
        Obs.bump Obs.Queries_completed;
        Obs.add Obs.Run_timeouts timeouts;
        n_run_timeouts := !n_run_timeouts + timeouts;
        Array.iteri
          (fun mi row ->
            Array.iteri (fun ti v -> scaled.(mi).(ti) <- v :: scaled.(mi).(ti)) row)
          out
      | Guard.Crashed failure ->
        Obs.bump Obs.Queries_crashed;
        incr n_crashed;
        crashes := failure :: !crashes
      | Guard.Timed_out _ ->
        Obs.bump Obs.Queries_timed_out;
        incr n_timed_out)
    results;
  List.iter
    (fun f -> Log.err (fun m -> m "%a" Guard.pp_failure f))
    (List.rev !crashes);
  if !n_timed_out > 0 then
    Log.warn (fun m ->
        m "%d quer%s dropped at the wall-clock deadline" !n_timed_out
          (if !n_timed_out = 1 then "y" else "ies"));
  let stat f =
    Array.map
      (Array.map (fun l ->
           if l = [] then Float.nan else f (Array.of_list l)))
      scaled
  in
  let averages = stat Ljqo_stats.Scaled_cost.average in
  let outlier_fractions = stat Ljqo_stats.Scaled_cost.outlier_fraction in
  {
    methods;
    tfactors;
    averages;
    outlier_fractions;
    n_queries = Array.length entries;
    n_crashed = !n_crashed;
    n_timed_out = !n_timed_out;
    n_run_timeouts = !n_run_timeouts;
    crashes = List.rev !crashes;
  }

(* Reference optimum for the heuristic-only tables: best of II/IAI/AGI at the
   full 9 N^2 budget. *)
let reference_best ?kappa ~model ~seed (entry : Workload.entry) =
  let ticks = max_budget ?kappa ~n_joins:entry.n_joins () in
  List.fold_left
    (fun acc (mi, m) ->
      let r =
        Optimizer.optimize ~method_:m ~model ~ticks
          ~seed:(run_seed ~seed ~query_seed:entry.seed ~replicate:0 ~method_index:mi)
          entry.query
      in
      Float.min acc r.cost)
    infinity
    [ (100, Methods.II); (101, Methods.IAI); (102, Methods.AGI) ]

let heuristic_state_experiment ?kappa ?(seed = 1) ~workload ~model ~tfactors ~states
    () =
  let tfactors = List.sort_uniq compare tfactors in
  let n_factors = List.length tfactors in
  let n_sources = List.length states in
  let scaled = Array.init n_sources (fun _ -> Array.make n_factors []) in
  Array.iter
    (fun (entry : Workload.entry) ->
      (* Guarded like the method runs: a crash in one heuristic source on one
         query costs that query's samples only. *)
      match
        Guard.run ~query_id:entry.index (fun () ->
            let best9 = reference_best ?kappa ~model ~seed entry in
            let n_joins = entry.n_joins in
            let budgets = checkpoints_for ?kappa ~tfactors ~n_joins () in
            List.mapi
              (fun si make_source ->
                (* One pass with the largest budget, recording the incumbent at
                   each checkpoint — same protocol as the method runs. *)
                let ev =
                  Evaluator.create ~checkpoints:budgets ~query:entry.query ~model
                    ~ticks:(max_budget ?kappa ~n_joins ())
                    ()
                in
                let source : Plan_source.t =
                  make_source entry.query ~charge:(Evaluator.charge ev)
                in
                (try
                   let rec drain () =
                     match source () with
                     | None -> ()
                     | Some plan ->
                       ignore (Evaluator.eval ev plan);
                       drain ()
                   in
                   drain ()
                 with Budget.Exhausted | Evaluator.Converged -> ());
                (si, List.map (fun (_, c) -> c /. best9) (Evaluator.checkpoint_costs ev)))
              states)
      with
      | Guard.Completed per_source ->
        List.iter
          (fun (si, ratios) ->
            List.iteri
              (fun ti ratio -> scaled.(si).(ti) <- ratio :: scaled.(si).(ti))
              ratios)
          per_source
      | (Guard.Crashed _ | Guard.Timed_out _) as g ->
        Log.err (fun m -> m "heuristic state run: %s" (Guard.describe g)))
    workload.Workload.entries;
  Array.map
    (Array.map (fun l ->
         if l = [] then Float.nan
         else Ljqo_stats.Scaled_cost.average (Array.of_list l)))
    scaled

let tf_label t = Printf.sprintf "%gN^2" t

let outcome_title ~title outcome =
  let notes = [] in
  let notes =
    if outcome.n_run_timeouts = 0 then notes
    else
      Printf.sprintf "%d runs cut at the deadline" outcome.n_run_timeouts :: notes
  in
  let notes =
    if outcome.n_crashed = 0 && outcome.n_timed_out = 0 then notes
    else
      Printf.sprintf "%d/%d queries dropped: %d crashed, %d timed out"
        (outcome.n_crashed + outcome.n_timed_out)
        outcome.n_queries outcome.n_crashed outcome.n_timed_out
      :: notes
  in
  if notes = [] then title
  else Printf.sprintf "%s [%s]" title (String.concat "; " notes)

let outcome_table ~title outcome =
  let table =
    Ljqo_report.Table.create
      ~title:(outcome_title ~title outcome)
      ~columns:(List.map tf_label outcome.tfactors)
  in
  List.iteri
    (fun mi m ->
      Ljqo_report.Table.add_float_row table ~label:(Methods.name m)
        (Array.to_list outcome.averages.(mi)))
    outcome.methods;
  table

let outcome_chart ~title outcome =
  let series =
    List.mapi
      (fun mi m ->
        {
          Ljqo_report.Chart.name = Methods.name m;
          points =
            List.mapi (fun ti t -> (t, outcome.averages.(mi).(ti))) outcome.tfactors;
        })
      outcome.methods
  in
  Ljqo_report.Chart.render
    ~title:(outcome_title ~title outcome)
    ~x_label:"time limit (multiples of N^2)" ~y_label:"avg scaled cost" series

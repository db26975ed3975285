(* The ljqo command-line tool.

     ljqo generate --n-joins 30 --benchmark graph-star -o q.qdl
     ljqo optimize q.qdl --method IAI --t-factor 9
     ljqo explain q.qdl --plan "2 0 1 3"
     ljqo compare q.qdl                      # all nine methods at once
     ljqo run q.qdl --method AGI             # execute on synthetic data
     ljqo sql q.sql --catalog stats --execute
     ljqo exact q.qdl / ljqo dp q.qdl        # exact baselines
     ljqo space q.qdl / ljqo bushy q.qdl     # plan-space studies
     ljqo inspect q.qdl / ljqo workload -o dir/
     ljqo methods / ljqo benchmarks *)

open Cmdliner
open Ljqo_core
module Qgen = Ljqo_querygen.Benchmark

let model_of_string = function
  | "memory" -> Ok (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)
  | "disk" -> Ok (module Ljqo_cost.Disk_model : Ljqo_cost.Cost_model.S)
  | s -> Error (`Msg ("unknown cost model " ^ s ^ " (memory|disk)"))

let model_conv =
  Arg.conv
    ( (fun s -> model_of_string s),
      fun ppf m ->
        let module M = (val m : Ljqo_cost.Cost_model.S) in
        Format.pp_print_string ppf M.name )

let method_conv =
  Arg.conv
    ( (fun s ->
        match Methods.of_name s with
        | Some m -> Ok m
        | None -> Error (`Msg ("unknown method " ^ s))),
      fun ppf m -> Format.pp_print_string ppf (Methods.name m) )

let benchmark_conv =
  let all = Qgen.default :: Qgen.variations in
  Arg.conv
    ( (fun s ->
        match List.find_opt (fun (b : Qgen.spec) -> b.name = s) all with
        | Some b -> Ok b
        | None ->
          Error
            (`Msg
               ("unknown benchmark " ^ s ^ "; available: "
               ^ String.concat ", " (List.map (fun (b : Qgen.spec) -> b.name) all)))),
      fun ppf (b : Qgen.spec) -> Format.pp_print_string ppf b.name )

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let model_arg =
  Arg.(
    value
    & opt model_conv (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)
    & info [ "model" ] ~docv:"MODEL" ~doc:"Cost model: memory or disk.")

let method_arg =
  Arg.(
    value & opt method_conv Methods.IAI
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Optimization method (II, SA, SAA, SAK, IAI, IKI, IAL, AGI, KBI, \
           2PO, portfolio, adaptive).")

let t_factor_arg =
  Arg.(
    value & opt float 9.0
    & info [ "t-factor"; "t" ] ~docv:"T"
        ~doc:"Time limit as a multiple of N^2 (the paper's budgets).")

let kappa_arg =
  Arg.(
    value & opt (some int) None
    & info [ "kappa" ] ~docv:"K" ~doc:"Ticks per time unit (calibration knob).")

(* --- observability ------------------------------------------------------ *)

module Obs = Ljqo_obs.Obs

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some (Filename.concat "results" "METRICS_ljqo.json"))
        (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Collect search counters and write them to $(docv) as JSON on exit \
           (default results/METRICS_ljqo.json when $(docv) is omitted).")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Stream sampled search trace events to $(docv) as JSON lines.")

let trace_sample_arg =
  Arg.(
    value & opt int 1
    & info [ "trace-sample" ] ~docv:"N"
        ~doc:"Keep every $(docv)th trace event per event type.")

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ljqo: " ^ msg);
      exit 2)
    fmt

(* Knobs shared by the optimizing subcommands, validated before any work:
   a bad value must exit 2 with a message, not surface later as a confusing
   Invalid_argument from deep inside the budget. *)
let check_knobs ~t_factor ~kappa ~trace_sample =
  if not (t_factor > 0.0) then
    fail_usage "--t-factor must be a positive number, got %g" t_factor;
  (match kappa with
  | Some k when k < 1 -> fail_usage "--kappa must be a positive integer, got %d" k
  | _ -> ());
  if trace_sample < 1 then
    fail_usage "--trace-sample must be a positive integer, got %d" trace_sample

let portfolio_width_arg =
  Arg.(
    value & opt (some int) None
    & info [ "portfolio-width" ] ~docv:"K"
        ~doc:
          "Portfolio replicates per round (method portfolio only; default \
           4).")

let portfolio_legs_arg =
  Arg.(
    value & opt (some string) None
    & info [ "portfolio-legs" ] ~docv:"LEGS"
        ~doc:
          "Comma-separated portfolio legs — at least two of II, SA, 2PO \
           (method portfolio only; default II,SA,2PO).")

(* Portfolio knobs, validated fail-fast like the knobs above.  The resulting
   [Methods.config] is inert for the non-portfolio methods. *)
let methods_config_for ~portfolio_width ~portfolio_legs =
  let default = Methods.default_config.Methods.portfolio_params in
  let width =
    match portfolio_width with
    | None -> default.Portfolio.width
    | Some k when k < 1 ->
      fail_usage "--portfolio-width must be a positive integer, got %d" k
    | Some k -> k
  in
  let legs =
    match portfolio_legs with
    | None -> default.Portfolio.legs
    | Some s ->
      let parts =
        List.filter
          (fun p -> p <> "")
          (List.map String.trim (String.split_on_char ',' s))
      in
      let legs =
        List.map
          (fun p ->
            match Portfolio.leg_of_name p with
            | Some l -> l
            | None ->
              fail_usage "--portfolio-legs: unknown leg %s (valid: II, SA, 2PO)"
                p)
          parts
      in
      if List.length (List.sort_uniq compare legs) < 2 then
        fail_usage
          "--portfolio-legs needs at least two distinct legs of II, SA, 2PO, \
           got %s"
          (if legs = [] then "none" else s);
      legs
  in
  {
    Methods.default_config with
    Methods.portfolio_params = { default with Portfolio.width; legs };
  }

(* --- learned routing ---------------------------------------------------- *)

module Learn = Ljqo_learn

let learn_model_arg =
  Arg.(
    value & opt (some string) None
    & info [ "learn-model" ] ~docv:"FILE"
        ~doc:
          "Trained routing model for --method adaptive (write one with ljqo \
           learn train).")

let learn_epoch_arg =
  Arg.(
    value & opt (some int) None
    & info [ "learn-epoch" ] ~docv:"N"
        ~doc:
          "Refresh the adaptive routing model every $(docv) served requests \
           (--method adaptive only; default 32).")

let load_learn_model path =
  match Learn.Model.load ~path with
  | Ok m -> m
  | Error e -> fail_usage "cannot load model %s: %s" path e

(* Learn knobs, validated fail-fast like the others: adaptive without a
   model must die with a usage error before any work, and a learn flag on a
   fixed method is a mistake worth flagging rather than silently ignoring. *)
let check_learn_knobs ~method_ ~learn_model ~learn_epoch =
  (match learn_epoch with
  | Some e when e < 1 ->
    fail_usage "--learn-epoch must be a positive integer, got %d" e
  | _ -> ());
  match method_ with
  | Methods.Adaptive ->
    if learn_model = None then
      fail_usage
        "--method adaptive requires --learn-model FILE (train one with ljqo \
         learn train)"
  | _ ->
    if learn_model <> None then
      fail_usage "--learn-model only applies to --method adaptive";
    if learn_epoch <> None then
      fail_usage "--learn-epoch only applies to --method adaptive"

(* The subcommands without --learn-model have no model to route with, so
   they refuse adaptive instead of quietly running its portfolio
   fallback. *)
let check_no_adaptive method_ =
  if method_ = Methods.Adaptive then
    fail_usage
      "--method adaptive needs --learn-model, which only optimize, serve-file, \
       serve and loadgen take"

(* The serving subcommands' online-learning state: adaptive serves through
   an [Online.t] seeded with the loaded model (every request records a
   sample; the router refreshes at epoch boundaries); fixed methods serve
   without one. *)
let learn_state_for ~method_ ~learn_model ~learn_epoch =
  check_learn_knobs ~method_ ~learn_model ~learn_epoch;
  match method_ with
  | Methods.Adaptive ->
    let initial = Option.map load_learn_model learn_model in
    Some (Learn.Online.create ?epoch:learn_epoch ?initial ())
  | _ -> None

(* Run [f] with metrics/tracing/span capture configured, flushing on the way
   out (including on exceptions, so a crashed run still leaves its trace).
   The flush is idempotent and also registered with [at_exit], because
   validation helpers deep inside a run ([fail_usage], the QDL error path)
   call [exit] directly, which would bypass [Fun.protect]'s finalizer. *)
let with_obs ~metrics ~trace ~trace_sample f =
  if Option.is_some metrics then Obs.set_enabled true;
  if Option.is_some metrics || Option.is_some trace then Obs.set_spans true;
  Option.iter (fun path -> Obs.trace_to ~sample:trace_sample ~path ()) trace;
  let flushed = ref false in
  let flush () =
    if not !flushed then begin
      flushed := true;
      Option.iter (fun path -> Obs.write_metrics ~path) metrics;
      Obs.trace_close ()
    end
  in
  at_exit flush;
  Fun.protect ~finally:flush f

let query_file_arg =
  Arg.(
    required & pos 0 (some file) None & info [] ~docv:"QUERY.qdl" ~doc:"Query file.")

let load_query path =
  try Ljqo_qdl.Parser.parse_file path with
  | Ljqo_qdl.Parser.Error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    exit 1

(* --- generate ---------------------------------------------------------- *)

let generate benchmark n_joins seed output =
  if n_joins < 1 then fail_usage "--n-joins must be a positive integer, got %d" n_joins;
  let rng = Ljqo_stats.Rng.create seed in
  let query = Qgen.generate_query benchmark ~n_joins ~rng in
  let text = Ljqo_qdl.Printer.to_string query in
  match output with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Printf.printf "wrote %s (%d relations, %d joins)\n" path
      (Ljqo_catalog.Query.n_relations query)
      (Ljqo_catalog.Query.n_joins query)

let generate_cmd =
  let n_joins =
    Arg.(
      value & opt int 30
      & info [ "n-joins"; "n" ] ~docv:"N" ~doc:"Number of joins (spanning edges).")
  in
  let benchmark =
    Arg.(
      value & opt benchmark_conv Qgen.default
      & info [ "benchmark"; "b" ] ~docv:"NAME"
          ~doc:"Benchmark distribution to draw the query from.")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic query in QDL form")
    Term.(const generate $ benchmark $ n_joins $ seed_arg $ output)

(* --- optimize ---------------------------------------------------------- *)

let ticks_for query t_factor kappa =
  let n_joins = max 1 (Ljqo_catalog.Query.n_relations query - 1) in
  Budget.ticks_for_limit ?ticks_per_unit:kappa ~t_factor ~n_joins ()

let print_plan query plan =
  let names =
    Array.to_list
      (Array.map
         (fun i -> (Ljqo_catalog.Query.relation query i).Ljqo_catalog.Relation.name)
         plan)
  in
  Printf.printf "plan: %s\n" (String.concat " |><| " names)

let optimize file method_ model t_factor kappa seed learn_model
    portfolio_width portfolio_legs metrics trace trace_sample =
  check_knobs ~t_factor ~kappa ~trace_sample;
  check_learn_knobs ~method_ ~learn_model ~learn_epoch:None;
  let learn_model = Option.map load_learn_model learn_model in
  let config = methods_config_for ~portfolio_width ~portfolio_legs in
  with_obs ~metrics ~trace ~trace_sample @@ fun () ->
  let query = load_query file in
  let ticks = ticks_for query t_factor kappa in
  let route, route_ticks, resolution =
    Learn.Router.resolve learn_model method_ query ~ticks
  in
  Learn.Router.bump route resolution;
  let r =
    Optimizer.optimize ~config ~method_:route ~model ~ticks:route_ticks ~seed query
  in
  let module M = (val model : Ljqo_cost.Cost_model.S) in
  Printf.printf "method %s, cost model %s, budget %d ticks (%.3gN^2)\n"
    (Methods.name method_) M.name ticks t_factor;
  print_plan query r.plan;
  Printf.printf "permutation: %s\n" (Plan.to_string r.plan);
  Printf.printf "estimated cost: %.6g (lower bound %.6g)%s\n" r.cost r.lower_bound
    (if r.converged then ", converged" else "");
  Printf.printf "ticks used: %d\n" r.ticks_used

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Choose a join order for a query")
    Term.(
      const optimize $ query_file_arg $ method_arg $ model_arg $ t_factor_arg
      $ kappa_arg $ seed_arg $ learn_model_arg $ portfolio_width_arg
      $ portfolio_legs_arg $ metrics_arg $ trace_arg $ trace_sample_arg)

(* --- explain ----------------------------------------------------------- *)

let parse_plan query s =
  let parts = String.split_on_char ' ' (String.trim s) in
  let parts = List.filter (fun p -> p <> "") parts in
  let n = Ljqo_catalog.Query.n_relations query in
  let resolve p =
    match int_of_string_opt p with
    | Some i when i >= 0 && i < n -> i
    | _ -> (
      (* allow relation names *)
      let rec find i =
        if i >= n then (
          Printf.eprintf "unknown relation %S in plan\n" p;
          exit 1)
        else if
          (Ljqo_catalog.Query.relation query i).Ljqo_catalog.Relation.name = p
        then i
        else find (i + 1)
      in
      find 0)
  in
  Array.of_list (List.map resolve parts)

let explain file plan_str model =
  let query = load_query file in
  let plan =
    match plan_str with
    | Some s -> (
      match parse_plan query s with
      | [||] -> fail_usage "--plan must name at least one relation"
      | plan -> plan)
    | None ->
      let ticks = ticks_for query 9.0 None in
      (Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:42 query).plan
  in
  if not (Plan.is_valid query plan) then
    prerr_endline "warning: plan contains cross products or is incomplete";
  let e = Ljqo_cost.Plan_cost.eval model query plan in
  print_plan query plan;
  print_string (Plan_render.render_plan ~model query plan);
  Printf.printf "%-4s %-16s %14s %14s\n" "step" "inner" "est. card" "est. cost";
  Array.iteri
    (fun i r ->
      Printf.printf "%-4d %-16s %14.4g %14.4g\n" i
        (Ljqo_catalog.Query.relation query r).Ljqo_catalog.Relation.name
        e.cards.(i)
        e.step_costs.(i))
    plan;
  Printf.printf "total estimated cost: %.6g\n" e.total

let explain_cmd =
  let plan_arg =
    Arg.(
      value & opt (some string) None
      & info [ "plan"; "p" ] ~docv:"PLAN"
          ~doc:"Space-separated relation ids or names; optimized when omitted.")
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show per-step size and cost estimates of a plan")
    Term.(const explain $ query_file_arg $ plan_arg $ model_arg)

(* --- run --------------------------------------------------------------- *)

let run_query file method_ model t_factor kappa seed max_rows metrics trace
    trace_sample =
  check_knobs ~t_factor ~kappa ~trace_sample;
  check_no_adaptive method_;
  if max_rows < 1 then
    fail_usage "--max-rows must be a positive integer, got %d" max_rows;
  with_obs ~metrics ~trace ~trace_sample @@ fun () ->
  let query = load_query file in
  let ticks = ticks_for query t_factor kappa in
  let r = Optimizer.optimize ~method_ ~model ~ticks ~seed query in
  print_plan query r.plan;
  Printf.printf "estimated cost: %.6g\n" r.cost;
  let rng = Ljqo_stats.Rng.create (seed + 1) in
  let data = Ljqo_exec.Relation_data.generate_all query ~rng in
  (try
     let result = Ljqo_exec.Executor.run ~max_rows query ~data r.plan in
     let est = (Ljqo_cost.Plan_cost.eval model query r.plan).cards in
     Printf.printf "%-4s %14s %14s\n" "step" "est. card" "actual card";
     List.iteri
       (fun i actual -> Printf.printf "%-4d %14.4g %14d\n" i est.(i) actual)
       (Ljqo_exec.Executor.cardinalities result);
     Printf.printf "final result: %d rows\n" (Array.length result.rows)
   with Ljqo_exec.Executor.Result_too_large n ->
     Printf.printf
       "execution aborted: intermediate result exceeded %d rows (cap %d)\n" n max_rows)

let run_cmd =
  let max_rows =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-rows" ] ~docv:"ROWS" ~doc:"Abort execution beyond this size.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize a query, then execute it on synthetic data")
    Term.(
      const run_query $ query_file_arg $ method_arg $ model_arg $ t_factor_arg
      $ kappa_arg $ seed_arg $ max_rows $ metrics_arg $ trace_arg
      $ trace_sample_arg)

(* --- exact ------------------------------------------------------------- *)

let exact file model =
  let query = load_query file in
  match Exhaustive.optimize model query with
  | r ->
    print_plan query r.plan;
    Printf.printf "optimal cost: %.6g (%d nodes expanded, %d branches pruned)\n"
      r.cost r.nodes_expanded r.pruned;
    Printf.printf "valid plans in the space: %d\n"
      (Exhaustive.count_valid_plans ~limit:5_000_000 query)
  | exception Exhaustive.Too_large { n; max_relations } ->
    Printf.eprintf
      "query has %d relations; exact search is capped at %d (the paper's \
       point!)\n"
      n max_relations;
    exit 1

let exact_cmd =
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact optimum by branch-and-bound (small queries)")
    Term.(const exact $ query_file_arg $ model_arg)

(* --- dp ---------------------------------------------------------------- *)

let dp file model =
  let query = load_query file in
  match Dp.optimize model query with
  | r ->
    print_plan query r.plan;
    Printf.printf
      "System-R DP: product-estimator cost %.6g, clamped-estimator cost %.6g\n"
      r.product_cost r.clamped_cost;
    Printf.printf "connected subsets explored: %d\n" r.subsets_explored
  | exception Dp.Too_large { n; max_relations } ->
    Printf.eprintf
      "query has %d relations; the DP table is capped at %d (the paper's \
       point — exponential memory, not a representation limit)\n"
      n max_relations;
    exit 1

let dp_cmd =
  Cmd.v
    (Cmd.info "dp" ~doc:"System-R dynamic programming baseline (small queries)")
    Term.(const dp $ query_file_arg $ model_arg)

(* --- space ------------------------------------------------------------- *)

let space file model seed samples =
  if samples < 1 then fail_usage "--samples must be a positive integer, got %d" samples;
  let query = load_query file in
  let stats = Space_stats.sample ~n_samples:samples ~seed model query in
  Format.printf "%a@." Space_stats.pp stats

let space_cmd =
  let samples =
    Arg.(
      value & opt int 200
      & info [ "samples" ] ~docv:"K" ~doc:"Number of random valid plans to cost.")
  in
  Cmd.v
    (Cmd.info "space" ~doc:"Sample the valid-plan cost distribution of a query")
    Term.(const space $ query_file_arg $ model_arg $ seed_arg $ samples)

(* --- bushy ------------------------------------------------------------- *)

let bushy file model t_factor kappa seed =
  let query = load_query file in
  let ticks = ticks_for query t_factor kappa in
  let linear = Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed query in
  let tree, bushy_cost = Bushy.optimize model query ~seed:(seed + 1) in
  Printf.printf "best linear (IAI):  cost %.6g  %s\n" linear.cost
    (Plan.to_string linear.plan);
  Printf.printf "best bushy (II):    cost %.6g  %s\n" bushy_cost
    (Bushy.to_string query tree);
  Printf.printf "linear/bushy ratio: %.3f%s\n" (linear.cost /. bushy_cost)
    (if linear.cost > bushy_cost *. 1.001 then "  (bushy wins)"
     else "  (linear space suffices)")

let bushy_cmd =
  Cmd.v
    (Cmd.info "bushy" ~doc:"Compare the linear and bushy plan spaces on a query")
    Term.(const bushy $ query_file_arg $ model_arg $ t_factor_arg $ kappa_arg $ seed_arg)

(* --- compare ----------------------------------------------------------- *)

let compare_methods file model t_factor kappa seed metrics trace trace_sample =
  check_knobs ~t_factor ~kappa ~trace_sample;
  with_obs ~metrics ~trace ~trace_sample @@ fun () ->
  let query = load_query file in
  let ticks = ticks_for query t_factor kappa in
  let results =
    List.map
      (fun m ->
        let r = Optimizer.optimize ~method_:m ~model ~ticks ~seed query in
        (m, r))
      Methods.all
  in
  let best =
    List.fold_left
      (fun acc (_, (r : Optimizer.result)) -> Float.min acc r.cost)
      infinity results
  in
  Printf.printf "%-5s %14s %10s %12s\n" "" "est. cost" "vs best" "ticks used";
  List.iter
    (fun (m, (r : Optimizer.result)) ->
      Printf.printf "%-5s %14.6g %9.2fx %12d%s\n" (Methods.name m) r.cost
        (r.cost /. best) r.ticks_used
        (if r.cost <= best *. 1.0000001 then "  <- best" else ""))
    results

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"Run all nine methods on one query")
    Term.(
      const compare_methods $ query_file_arg $ model_arg $ t_factor_arg $ kappa_arg
      $ seed_arg $ metrics_arg $ trace_arg $ trace_sample_arg)

(* --- sql --------------------------------------------------------------- *)

let sql file catalog_file method_ model t_factor kappa seed execute =
  check_no_adaptive method_;
  let catalog =
    try Ljqo_sql.Stats_catalog.parse_file catalog_file with
    | Ljqo_sql.Stats_catalog.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" catalog_file line message;
      exit 1
  in
  let ast =
    try Ljqo_sql.Sql_parser.parse_file file with
    | Ljqo_sql.Sql_parser.Error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" file line message;
      exit 1
  in
  let t =
    try Ljqo_sql.Translate.translate catalog ast with
    | Ljqo_sql.Translate.Error m ->
      Printf.eprintf "%s: %s\n" file m;
      exit 1
  in
  let query = t.Ljqo_sql.Translate.query in
  Printf.printf "%d relations, %d join predicates\n"
    (Ljqo_catalog.Query.n_relations query)
    (Ljqo_catalog.Query.n_joins query);
  List.iter
    (fun (binder, text, s) ->
      Printf.printf "  selection on %s: %s  (selectivity %.4g)\n" binder text s)
    t.Ljqo_sql.Translate.selection_details;
  let ticks = ticks_for query t_factor kappa in
  let r = Optimizer.optimize ~method_ ~model ~ticks ~seed query in
  Printf.printf "\n%s" (Plan_render.render_plan ~model query r.plan);
  Printf.printf "estimated cost: %.6g (lower bound %.6g)\n" r.cost r.lower_bound;
  if execute then begin
    let data =
      Ljqo_exec.Pipeline.prepare query ~rng:(Ljqo_stats.Rng.create (seed + 1))
    in
    try
      let result = Ljqo_exec.Executor.run query ~data r.plan in
      Printf.printf "executed: %d result rows (per-step sizes: %s)\n"
        (Array.length result.rows)
        (String.concat ", "
           (List.map string_of_int (Ljqo_exec.Executor.cardinalities result)))
    with Ljqo_exec.Executor.Result_too_large n ->
      Printf.printf "execution aborted: intermediate result exceeded %d rows\n" n
  end

let sql_cmd =
  let catalog_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "catalog"; "c" ] ~docv:"STATS" ~doc:"Statistics catalog file.")
  in
  let execute_arg =
    Arg.(
      value & flag
      & info [ "execute"; "e" ]
          ~doc:"After optimizing, run the plan on synthetic data.")
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Optimize a SQL select-project-join block")
    Term.(
      const sql $ query_file_arg $ catalog_arg $ method_arg $ model_arg
      $ t_factor_arg $ kappa_arg $ seed_arg $ execute_arg)

(* --- inspect ----------------------------------------------------------- *)

let inspect file =
  let query = load_query file in
  Format.printf "%d relations, %d join predicates@."
    (Ljqo_catalog.Query.n_relations query)
    (Ljqo_catalog.Query.n_joins query);
  for i = 0 to Ljqo_catalog.Query.n_relations query - 1 do
    Format.printf "  %a@." Ljqo_catalog.Relation.pp (Ljqo_catalog.Query.relation query i)
  done;
  Format.printf "join graph:@.  %a@."
    Ljqo_catalog.Graph_metrics.pp
    (Ljqo_catalog.Graph_metrics.compute (Ljqo_catalog.Query.graph query));
  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  Format.printf "cost lower bound (memory model): %.6g@."
    (Ljqo_cost.Plan_cost.lower_bound model query);
  if Ljqo_catalog.Query.n_relations query <= 12 then
    Format.printf "valid plans: %d@."
      (Exhaustive.count_valid_plans ~limit:5_000_000 query)

let inspect_cmd =
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show a query's statistics and join-graph shape")
    Term.(const inspect $ query_file_arg)

(* --- workload ---------------------------------------------------------- *)

let workload benchmark per_n large seed out =
  if per_n < 1 then fail_usage "--per-n must be a positive integer, got %d" per_n;
  let ns =
    if large then Ljqo_querygen.Workload.large_ns
    else Ljqo_querygen.Workload.standard_ns
  in
  let w = Ljqo_querygen.Workload.make ~ns ~per_n ~seed benchmark in
  Ljqo_querygen.Workload_io.save w ~dir:out;
  Printf.printf "wrote %d queries to %s (benchmark %s)\n"
    (Ljqo_querygen.Workload.size w)
    out benchmark.Qgen.name

let workload_cmd =
  let per_n =
    Arg.(
      value & opt int 10
      & info [ "per-n" ] ~docv:"K" ~doc:"Queries per value of N.")
  in
  let large =
    Arg.(
      value & flag
      & info [ "large" ] ~doc:"Use N = 10..100 instead of 10..50.")
  in
  let benchmark =
    Arg.(
      value & opt benchmark_conv Qgen.default
      & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc:"Benchmark distributions.")
  in
  let out =
    Arg.(
      required & opt (some string) None
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate and save a whole benchmark workload")
    Term.(const workload $ benchmark $ per_n $ large $ seed_arg $ out)

(* --- serve-file -------------------------------------------------------- *)

module Service = Ljqo_service.Service
module Plan_cache = Ljqo_service.Plan_cache

let load_workload_queries dir =
  match Ljqo_querygen.Workload_io.load_result ~dir with
  | Ok [] -> fail_usage "workload %s is empty" dir
  | Ok entries ->
    Array.of_list
      (List.map (fun e -> e.Ljqo_querygen.Workload_io.query) entries)
  | Error e ->
    fail_usage "cannot load workload %s: %s" dir
      (Ljqo_querygen.Workload_io.error_to_string e)

let serve_file dir method_ model t_factor kappa seed cache_capacity jobs passes
    learn_model learn_epoch portfolio_width portfolio_legs metrics trace
    trace_sample =
  check_knobs ~t_factor ~kappa ~trace_sample;
  let methods_config = methods_config_for ~portfolio_width ~portfolio_legs in
  if cache_capacity < 1 then
    fail_usage "--cache-capacity must be a positive integer, got %d"
      cache_capacity;
  (match jobs with
  | Some j when j < 1 -> fail_usage "--jobs must be a positive integer, got %d" j
  | _ -> ());
  if passes < 1 then fail_usage "--passes must be a positive integer, got %d" passes;
  let learn = learn_state_for ~method_ ~learn_model ~learn_epoch in
  with_obs ~metrics ~trace ~trace_sample @@ fun () ->
  let queries = load_workload_queries dir in
  let service =
    Service.create ~cache_capacity ?learn
      {
        Service.method_;
        methods_config;
        model;
        budget = Service.Time_limit { t_factor; kappa };
        seed;
      }
  in
  let module M = (val model : Ljqo_cost.Cost_model.S) in
  Printf.printf "serving %d queries from %s (method %s, model %s, cache %d)\n"
    (Array.length queries) dir (Methods.name method_) M.name cache_capacity;
  for pass = 1 to passes do
    let served = Service.serve_batch ?jobs service queries in
    let count src =
      Array.fold_left
        (fun acc (s : Service.served) -> if s.source = src then acc + 1 else acc)
        0 served
    in
    let ticks =
      Array.fold_left (fun acc (s : Service.served) -> acc + s.ticks_used) 0 served
    in
    Printf.printf
      "pass %d: %d exact-hit, %d warm-start, %d cold, %d deduped; %d ticks\n"
      pass (count Service.Exact_hit) (count Service.Warm_start)
      (count Service.Cold) (count Service.Deduped) ticks
  done;
  let cache = Service.cache service in
  let st = Plan_cache.stats cache in
  Printf.printf
    "cache: %d/%d entries, %d hits, %d coarse hits, %d misses, %d insertions, \
     %d evictions\n"
    (Plan_cache.length cache) (Plan_cache.capacity cache) st.hits st.coarse_hits
    st.misses st.insertions st.evictions

let serve_file_cmd =
  let dir =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD_DIR"
          ~doc:"Workload directory (QDL files + MANIFEST, see ljqo workload).")
  in
  let cache_capacity =
    Arg.(
      value & opt int 1024
      & info [ "cache-capacity" ] ~docv:"K" ~doc:"Plan cache capacity.")
  in
  let jobs =
    Arg.(
      value & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:"Serving domains (default: all cores); a pure speed knob.")
  in
  let passes =
    Arg.(
      value & opt int 1
      & info [ "passes" ] ~docv:"P"
          ~doc:"Serve the workload $(docv) times through the same cache.")
  in
  Cmd.v
    (Cmd.info "serve-file"
       ~doc:"Optimize a saved workload through the caching service")
    Term.(
      const serve_file $ dir $ method_arg $ model_arg $ t_factor_arg $ kappa_arg
      $ seed_arg $ cache_capacity $ jobs $ passes $ learn_model_arg
      $ learn_epoch_arg $ portfolio_width_arg $ portfolio_legs_arg
      $ metrics_arg $ trace_arg $ trace_sample_arg)

(* --- serve / loadgen ---------------------------------------------------- *)

module Server = Ljqo_service.Server
module Hist = Ljqo_obs.Hist

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"W" ~doc:"Worker domains serving requests.")

let queue_capacity_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-capacity" ] ~docv:"Q"
        ~doc:"Bounded request-queue depth (the admission-control limit).")

let tenant_slots_arg =
  Arg.(
    value & opt (some int) None
    & info [ "tenant-slots" ] ~docv:"K"
        ~doc:
          "Per-tenant in-flight request cap (fair-share admission); \
           unlimited when omitted.")

let request_deadline_arg =
  Arg.(
    value & opt (some float) None
    & info [ "request-deadline" ] ~docv:"SEC"
        ~doc:
          "Per-request wall-clock deadline in seconds: an overloaded worker \
           serves its incumbent plan as timed-out instead of blocking the \
           queue.")

let drain_timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "drain-timeout" ] ~docv:"SEC"
        ~doc:
          "Give up on the graceful drain after $(docv) seconds (serve \
           only).")

let server_cache_capacity_arg =
  Arg.(
    value & opt int 1024
    & info [ "cache-capacity" ] ~docv:"K" ~doc:"Plan cache capacity.")

let check_server_knobs ~workers ~queue_capacity ~tenant_slots ~request_deadline
    ~cache_capacity =
  if workers < 1 then
    fail_usage "--workers must be a positive integer, got %d" workers;
  if queue_capacity < 1 then
    fail_usage "--queue-capacity must be a positive integer, got %d"
      queue_capacity;
  (match tenant_slots with
  | Some k when k < 1 ->
    fail_usage "--tenant-slots must be a positive integer, got %d" k
  | _ -> ());
  (match request_deadline with
  | Some d when not (d > 0.0) ->
    fail_usage "--request-deadline must be a positive number, got %g" d
  | _ -> ());
  if cache_capacity < 1 then
    fail_usage "--cache-capacity must be a positive integer, got %d"
      cache_capacity

let server_config ~method_ ~methods_config ~model ~t_factor ~kappa ~seed
    ~workers ~queue_capacity ~tenant_slots ~request_deadline =
  {
    Server.service =
      {
        Service.method_;
        methods_config;
        model;
        budget = Service.Time_limit { t_factor; kappa };
        seed;
      };
    workers;
    queue_capacity;
    tenant_slots;
    request_deadline;
  }

let latency_hist responses =
  List.fold_left
    (fun h (r : Server.response) -> Hist.record h r.latency_ns)
    Hist.empty responses

let print_latency h =
  if not (Hist.is_empty h) then begin
    let ms q = float_of_int (Hist.quantile h q) /. 1e6 in
    Printf.printf "latency: p50 %.3fms, p99 %.3fms, p999 %.3fms, max %.3fms\n"
      (ms 0.5) (ms 0.99) (ms 0.999)
      (float_of_int (Hist.max_value h) /. 1e6)
  end

let print_cache_line cache =
  let st = Plan_cache.stats cache in
  Printf.printf "cache: %d/%d entries, %d hits, %d coarse hits, %d misses\n"
    (Plan_cache.length cache) (Plan_cache.capacity cache) st.hits
    st.coarse_hits st.misses

let total_shed (st : Server.stats) =
  st.shed_queue_full + st.shed_tenant_limit + st.shed_draining

let print_server_stats (st : Server.stats) =
  Printf.printf
    "accepted %d: served %d (timed out %d, failed %d); shed %d (queue_full \
     %d, tenant_limit %d, draining %d); drained %d; max queue depth %d\n"
    st.accepted st.served st.timed_out st.failed (total_shed st)
    st.shed_queue_full st.shed_tenant_limit st.shed_draining st.drained
    st.max_queue_depth

(* The long-lived server: submit the workload through the admission path
   (with backpressure, so nothing is shed by a slow consumer), drain
   gracefully on SIGTERM/SIGINT or when the workload is exhausted, exit 0
   once every accepted request has its response. *)
let serve dir method_ model t_factor kappa seed cache_capacity workers
    queue_capacity tenant_slots request_deadline drain_timeout passes
    learn_model learn_epoch portfolio_width portfolio_legs metrics trace
    trace_sample =
  check_knobs ~t_factor ~kappa ~trace_sample;
  let methods_config = methods_config_for ~portfolio_width ~portfolio_legs in
  check_server_knobs ~workers ~queue_capacity ~tenant_slots ~request_deadline
    ~cache_capacity;
  (match drain_timeout with
  | Some d when not (d > 0.0) ->
    fail_usage "--drain-timeout must be a positive number, got %g" d
  | _ -> ());
  if passes < 1 then fail_usage "--passes must be a positive integer, got %d" passes;
  let learn = learn_state_for ~method_ ~learn_model ~learn_epoch in
  with_obs ~metrics ~trace ~trace_sample @@ fun () ->
  let queries = load_workload_queries dir in
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let server =
    Server.create ~cache_capacity ?learn
      (server_config ~method_ ~methods_config ~model ~t_factor ~kappa ~seed
         ~workers ~queue_capacity ~tenant_slots ~request_deadline)
  in
  let module M = (val model : Ljqo_cost.Cost_model.S) in
  Printf.printf
    "serving %d queries from %s (%d workers, queue %d, method %s, model %s)\n%!"
    (Array.length queries) dir workers queue_capacity (Methods.name method_)
    M.name;
  for _pass = 1 to passes do
    Array.iter
      (fun q ->
        if not (Atomic.get stop) then ignore (Server.submit_wait server q))
      queries
  done;
  if Atomic.get stop then Printf.printf "signal received: draining\n%!";
  let result = Server.drain ?timeout:drain_timeout server in
  print_server_stats (Server.stats server);
  let responses =
    match result with
    | Server.Drained rs -> rs
    | Server.Drain_timeout { responses; _ } -> responses
  in
  print_latency (latency_hist responses);
  print_cache_line (Server.cache server);
  match result with
  | Server.Drained _ -> ()
  | Server.Drain_timeout { pending; _ } ->
    Printf.eprintf "ljqo: drain timed out with %d requests pending\n" pending;
    exit 1

let serve_cmd =
  let dir =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD_DIR"
          ~doc:"Workload directory (QDL files + MANIFEST, see ljqo workload).")
  in
  let passes =
    Arg.(
      value & opt int 1
      & info [ "passes" ] ~docv:"P"
          ~doc:"Submit the workload $(docv) times through the same cache.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent optimizer server over a workload (SIGTERM \
          drains gracefully)")
    Term.(
      const serve $ dir $ method_arg $ model_arg $ t_factor_arg $ kappa_arg
      $ seed_arg $ server_cache_capacity_arg $ workers_arg
      $ queue_capacity_arg $ tenant_slots_arg $ request_deadline_arg
      $ drain_timeout_arg $ passes $ learn_model_arg $ learn_epoch_arg
      $ portfolio_width_arg $ portfolio_legs_arg $ metrics_arg $ trace_arg
      $ trace_sample_arg)

(* Open-loop load generation: the arrival schedule (exponential gaps), the
   query choices and the tenant assignment are all drawn from one seeded
   stream, so the offered load is reproducible — only the wall-clock
   outcomes (latency, shed counts) vary with the machine. *)
let loadgen dir method_ model t_factor kappa seed cache_capacity workers
    queue_capacity tenant_slots tenants request_deadline rate requests sweep
    svg drain_timeout learn_model learn_epoch portfolio_width portfolio_legs
    metrics trace trace_sample =
  check_knobs ~t_factor ~kappa ~trace_sample;
  let methods_config = methods_config_for ~portfolio_width ~portfolio_legs in
  check_server_knobs ~workers ~queue_capacity ~tenant_slots ~request_deadline
    ~cache_capacity;
  check_learn_knobs ~method_ ~learn_model ~learn_epoch;
  if not (rate > 0.0) then
    fail_usage "--rate must be a positive number, got %g" rate;
  if requests < 1 then
    fail_usage "--requests must be a positive integer, got %d" requests;
  if tenants < 1 then
    fail_usage "--tenants must be a positive integer, got %d" tenants;
  (match drain_timeout with
  | Some _ -> fail_usage "--drain-timeout only applies to serve"
  | None -> ());
  let rates =
    match sweep with
    | None -> [ rate ]
    | Some s ->
      List.map
        (fun tok ->
          match float_of_string_opt (String.trim tok) with
          | Some r when r > 0.0 -> r
          | _ ->
            fail_usage "--sweep expects comma-separated positive rates, got %S"
              tok)
        (String.split_on_char ',' s)
  in
  with_obs ~metrics ~trace ~trace_sample @@ fun () ->
  let queries = load_workload_queries dir in
  let run_rate rate =
    (* A fresh server per rate gets a fresh learn state: each sweep point
       starts from the same loaded model. *)
    let learn = learn_state_for ~method_ ~learn_model ~learn_epoch in
    let server =
      Server.create ~cache_capacity ?learn
        (server_config ~method_ ~methods_config ~model ~t_factor ~kappa
           ~seed ~workers ~queue_capacity ~tenant_slots ~request_deadline)
    in
    let rng = Ljqo_stats.Rng.create seed in
    let t0 = Unix.gettimeofday () in
    let due = ref 0.0 in
    for _ = 1 to requests do
      (* Deterministic open-loop schedule: Poisson arrivals at [rate]. *)
      due := !due -. (log (1.0 -. Ljqo_stats.Rng.float rng 1.0) /. rate);
      let q = queries.(Ljqo_stats.Rng.int rng (Array.length queries)) in
      let tenant = Printf.sprintf "t%d" (Ljqo_stats.Rng.int rng tenants) in
      let rec wait () =
        let slack = t0 +. !due -. Unix.gettimeofday () in
        if slack > 0.0 then begin
          (try Unix.sleepf (Float.min slack 0.05)
           with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          wait ()
        end
      in
      wait ();
      ignore (Server.submit ~tenant server q)
    done;
    let result = Server.drain server in
    let elapsed = Unix.gettimeofday () -. t0 in
    let st = Server.stats server in
    let responses =
      match result with
      | Server.Drained rs -> rs
      | Server.Drain_timeout { responses; _ } -> responses
    in
    let goodput = float_of_int st.served /. elapsed in
    Printf.printf
      "rate %g/s: offered %d, accepted %d, shed %d (queue_full %d, \
       tenant_limit %d), served %d (timed out %d, failed %d), goodput \
       %.2f/s, max queue depth %d\n"
      rate requests
      (st.accepted) (total_shed st) st.shed_queue_full st.shed_tenant_limit
      st.served st.timed_out st.failed goodput st.max_queue_depth;
    print_latency (latency_hist responses);
    (rate, goodput)
  in
  let curve = List.map run_rate rates in
  match svg with
  | None -> ()
  | Some path ->
    let series =
      [
        { Ljqo_report.Chart.name = "goodput"; points = curve };
        {
          Ljqo_report.Chart.name = "offered";
          points = List.map (fun (r, _) -> (r, r)) curve;
        };
      ]
    in
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc
          (Ljqo_report.Chart.render_svg
             ~title:"goodput vs offered load"
             ~x_label:"offered rate (req/s)" ~y_label:"goodput (req/s)" series));
    Printf.printf "wrote %s\n" path

let loadgen_cmd =
  let dir =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"WORKLOAD_DIR"
          ~doc:"Workload directory to replay (see ljqo workload).")
  in
  let rate =
    Arg.(
      value & opt float 10.0
      & info [ "rate" ] ~docv:"R" ~doc:"Target arrival rate, requests/second.")
  in
  let requests =
    Arg.(
      value & opt int 64
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Number of arrivals to offer.")
  in
  let tenants =
    Arg.(
      value & opt int 1
      & info [ "tenants" ] ~docv:"T"
          ~doc:"Spread arrivals round a pool of $(docv) synthetic tenants.")
  in
  let sweep =
    Arg.(
      value & opt (some string) None
      & info [ "sweep" ] ~docv:"R1,R2,.."
          ~doc:"Run once per rate and plot the goodput curve across them.")
  in
  let svg =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Write a goodput-vs-offered-load SVG chart to $(docv).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay a workload open-loop at a target arrival rate")
    Term.(
      const loadgen $ dir $ method_arg $ model_arg $ t_factor_arg $ kappa_arg
      $ seed_arg $ server_cache_capacity_arg $ workers_arg
      $ queue_capacity_arg $ tenant_slots_arg $ tenants $ request_deadline_arg
      $ rate $ requests $ sweep $ svg $ drain_timeout_arg $ learn_model_arg
      $ learn_epoch_arg $ portfolio_width_arg $ portfolio_legs_arg
      $ metrics_arg $ trace_arg $ trace_sample_arg)

(* --- obs ---------------------------------------------------------------- *)

module Export = Ljqo_obs.Export

let load_events path =
  match Export.events_of_file path with
  | Ok events -> events
  | Error (lineno, msg) -> fail_usage "%s:%d: %s" path lineno msg
  | exception Sys_error e -> fail_usage "%s" e

let write_output output content =
  match output with
  | None -> print_string content
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc content);
    Printf.printf "wrote %s\n" path

let trace_file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl" ~doc:"JSONL trace written with --trace.")

let output_arg =
  Arg.(
    value & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

let obs_summary_cmd =
  Cmd.v
    (Cmd.info "summary" ~doc:"Summarize a trace: event counts and span totals")
    Term.(const (fun file -> print_string (Export.summary (load_events file))) $ trace_file_arg)

let obs_export_chrome_cmd =
  Cmd.v
    (Cmd.info "export-chrome"
       ~doc:"Convert a trace to Chrome trace_event JSON (Perfetto-loadable)")
    Term.(
      const (fun file output -> write_output output (Export.chrome (load_events file)))
      $ trace_file_arg $ output_arg)

let obs_export_flame_cmd =
  Cmd.v
    (Cmd.info "export-flame"
       ~doc:"Convert a trace's spans to folded-stack flamegraph text")
    Term.(
      const (fun file output -> write_output output (Export.flame (load_events file)))
      $ trace_file_arg $ output_arg)

(* Re-run the paper's core randomized methods on one query with trajectory
   capture on, and render incumbent scaled cost against ticks charged. *)
let obs_trajectory file model t_factor kappa seed output =
  check_knobs ~t_factor ~kappa ~trace_sample:1;
  let query = load_query file in
  if not (Ljqo_catalog.Query.is_connected query) then
    fail_usage "trajectory needs a connected query (got a cross-product query)";
  let ticks = ticks_for query t_factor kappa in
  Obs.set_enabled true;
  Obs.reset ();
  List.iter
    (fun m ->
      ignore
        (Obs.with_run (Methods.name m) (fun () ->
             Optimizer.optimize ~method_:m ~model ~ticks ~seed query)))
    [ Methods.II; Methods.SA ];
  Obs.with_run "2PO" (fun () ->
      let ev = Evaluator.create ~query ~model ~ticks () in
      let rng = Ljqo_stats.Rng.create seed in
      Two_phase.run ev rng);
  let series =
    List.map
      (fun (label, points) ->
        {
          Ljqo_report.Chart.name = label;
          points = List.map (fun (t, c) -> (float_of_int t, c)) points;
        })
      (Obs.trajectories ())
  in
  let module M = (val model : Ljqo_cost.Cost_model.S) in
  let title =
    Printf.sprintf "%s: incumbent cost vs ticks (%s, %.3gN^2)"
      (Filename.basename file) M.name t_factor
  in
  write_output output
    (Ljqo_report.Chart.render_svg ~title ~x_label:"ticks charged"
       ~y_label:"incumbent cost" series)

let obs_trajectory_cmd =
  Cmd.v
    (Cmd.info "trajectory"
       ~doc:"Run II, SA and two-phase on a query and plot cost vs ticks as SVG")
    Term.(
      const obs_trajectory $ query_file_arg $ model_arg $ t_factor_arg
      $ kappa_arg $ seed_arg $ output_arg)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs" ~doc:"Inspect and export observability data")
    [ obs_summary_cmd; obs_export_chrome_cmd; obs_export_flame_cmd; obs_trajectory_cmd ]

(* --- learn -------------------------------------------------------------- *)

let parse_ns s =
  let parts =
    List.filter (fun p -> p <> "") (List.map String.trim (String.split_on_char ',' s))
  in
  let ns =
    List.map
      (fun p ->
        match int_of_string_opt p with
        | Some n when n >= 2 -> n
        | _ -> fail_usage "--ns expects comma-separated join counts >= 2, got %S" p)
      parts
  in
  if ns = [] then fail_usage "--ns expects at least one join count";
  ns

let learn_ns_arg =
  Arg.(
    value & opt string "10,20"
    & info [ "ns" ] ~docv:"N1,N2,.."
        ~doc:"Join counts to cover, one workload ladder rung per value.")

let learn_per_n_arg =
  Arg.(
    value & opt int 2
    & info [ "per-n" ] ~docv:"Q"
        ~doc:"Queries per join count per benchmark spec.")

let learn_jobs_arg =
  Arg.(
    value & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"J"
        ~doc:"Domains to parallelize over (a pure speed knob).")

let check_learn_grid ~per_n ~jobs =
  if per_n < 1 then fail_usage "--per-n must be a positive integer, got %d" per_n;
  match jobs with
  | Some j when j < 1 -> fail_usage "--jobs must be a positive integer, got %d" j
  | _ -> ()

(* Collect the (benchmark x size x route x budget-fraction) sample grid and
   fit the routing model.  Everything downstream of the seeds is
   deterministic, so the written model file is bit-identical across runs
   and job counts. *)
let learn_train ns per_n seed t_factor lambda jobs model dump_samples output =
  check_knobs ~t_factor ~kappa:None ~trace_sample:1;
  let ns = parse_ns ns in
  check_learn_grid ~per_n ~jobs;
  if not (lambda > 0.0) then
    fail_usage "--lambda must be a positive number, got %g" lambda;
  let spec_indices = List.init 10 Fun.id in
  let samples =
    Learn.Dataset.collect ?jobs ~spec_indices ~ns ~per_n ~seed ~t_factor
      ~routes:Learn.Model.routes ~fractions:Learn.Router.fractions ~model ()
  in
  let usable = List.length (List.filter Learn.Dataset.usable samples) in
  Option.iter
    (fun path ->
      Learn.Dataset.save_jsonl ~path samples;
      Printf.printf "wrote %s (%d samples)\n" path (List.length samples))
    dump_samples;
  match Learn.Model.train ~lambda samples with
  | None ->
    fail_usage "no usable training samples (%d collected)" (List.length samples)
  | Some m ->
    Learn.Model.save ~path:output m;
    Printf.printf "trained on %d samples (%d usable); wrote %s\n"
      (List.length samples) usable output

let learn_train_cmd =
  let lambda =
    Arg.(
      value & opt float Learn.Model.lambda_default
      & info [ "lambda" ] ~docv:"L" ~doc:"Ridge regularizer (positive).")
  in
  let dump_samples =
    Arg.(
      value & opt (some string) None
      & info [ "dump-samples" ] ~docv:"FILE"
          ~doc:"Also write the training samples to $(docv) as JSON lines.")
  in
  let output =
    Arg.(
      value & opt string "learn-model.txt"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Model file to write.")
  in
  Cmd.v
    (Cmd.info "train"
       ~doc:"Collect optimizer samples over the benchmark grid and fit a \
             routing model")
    Term.(
      const learn_train $ learn_ns_arg $ learn_per_n_arg $ seed_arg
      $ t_factor_arg $ lambda $ learn_jobs_arg $ model_arg $ dump_samples
      $ output)

(* The ROADMAP's evaluation table: mean scaled cost at a fixed budget,
   adaptive vs each fixed method, across the paper's nine variations. *)
let learn_eval model_file ns per_n seed t_factor jobs cost_model =
  check_knobs ~t_factor ~kappa:None ~trace_sample:1;
  let ns = parse_ns ns in
  check_learn_grid ~per_n ~jobs;
  let m = Option.map load_learn_model model_file in
  let report = Learn.Evaluate.run ?jobs ~ns ~per_n ~seed ~t_factor ~cost_model m in
  let { Learn.Evaluate.methods; rows; overall; route_counts } = report in
  let table =
    Ljqo_report.Table.create
      ~title:
        (Printf.sprintf "mean scaled cost at %.3gN^2 (adaptive vs fixed)"
           t_factor)
      ~columns:methods
  in
  List.iter
    (fun (row : Learn.Evaluate.row) ->
      Ljqo_report.Table.add_float_row table ~label:row.variation
        (List.map (fun name -> List.assoc name row.means) methods))
    rows;
  Ljqo_report.Table.add_float_row table ~label:"overall"
    (List.map (fun name -> List.assoc name overall) methods);
  Ljqo_report.Table.print table;
  Printf.printf "adaptive routes: %s\n"
    (String.concat ", "
       (List.map (fun (r, c) -> Printf.sprintf "%s %d" r c) route_counts))

let learn_eval_cmd =
  let model_file =
    Arg.(
      value & opt (some string) None
      & info [ "learn-model" ] ~docv:"FILE"
          ~doc:
            "Routing model to evaluate; without it adaptive is the \
             portfolio-fallback baseline.")
  in
  let seed =
    Arg.(
      value & opt int 43
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Random seed (default 43: disjoint from train's 42).")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Compare adaptive routing against each fixed method across the \
             nine workload variations")
    Term.(
      const learn_eval $ model_file $ learn_ns_arg $ learn_per_n_arg $ seed
      $ t_factor_arg $ learn_jobs_arg $ model_arg)

let learn_cmd =
  Cmd.group
    (Cmd.info "learn" ~doc:"Train and evaluate the learned method router")
    [ learn_train_cmd; learn_eval_cmd ]

(* --- feedback ----------------------------------------------------------- *)

module Feedback = Ljqo_feedback.Feedback
module Calibration = Ljqo_feedback.Calibration

let feedback_specs = Qgen.default :: Qgen.variations

(* Smaller default grid than learn's: these plans actually execute, so the
   ladder stays in join counts whose intermediates fit the row cap. *)
let feedback_ns_arg =
  Arg.(
    value & opt string "6,8"
    & info [ "ns" ] ~docv:"N1,N2,.."
        ~doc:"Join counts to execute, one workload rung per value.")

let feedback_per_n_arg =
  Arg.(
    value & opt int 2
    & info [ "per-n" ] ~docv:"Q" ~doc:"Queries per join count per variation.")

let max_rows_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "max-rows" ] ~docv:"R"
        ~doc:
          "Executor row cap per intermediate; overflowing plans are counted \
           and truncated, never fatal.")

let check_feedback_grid ~per_n ~jobs ~max_rows =
  if per_n < 1 then fail_usage "--per-n must be a positive integer, got %d" per_n;
  if max_rows < 1 then
    fail_usage "--max-rows must be a positive integer, got %d" max_rows;
  match jobs with
  | Some j when j < 1 -> fail_usage "--jobs must be a positive integer, got %d" j
  | _ -> ()

let load_calibration path =
  match Calibration.load ~path with
  | Ok c -> c
  | Error e -> fail_usage "cannot load calibration %s: %s" path e

(* Every variation through the feedback pipeline.  A calibration entry (if
   any) keys on the variation name and applies to the measurement only —
   optimization is always uncalibrated, so before and after score the same
   plans. *)
let feedback_run_all ?calibration ~jobs ~max_rows ~model ~method_ ~t_factor ~ns
    ~per_n ~seed () =
  List.map
    (fun (spec : Qgen.spec) ->
      let sel_factor =
        Option.bind calibration (fun c -> Calibration.factor c spec.name)
      in
      ( spec,
        Feedback.run_spec ?jobs ?sel_factor ~max_rows ~model ~method_ ~t_factor
          ~ns ~per_n ~seed spec ))
    feedback_specs

let band_x label =
  match label with
  | "depth 1" -> 1.0
  | "depth 2" -> 2.0
  | "depth 3" -> 3.0
  | _ -> 4.0

let print_feedback_summary name (s : Feedback.Summary.t) =
  Printf.printf "%-18s %d plans (%d truncated), %d samples, mean q-error %.3f\n"
    name s.plans s.truncated s.n_samples s.mean;
  List.iter
    (fun (d : Feedback.Summary.depth_stat) ->
      Printf.printf "  %-8s n=%-4d p50 %9.3f  p95 %9.3f  max %9.3f\n" d.label
        d.count d.p50 d.p95 d.worst)
    s.depths

let feedback_report calibration_file svg ns per_n jobs seed t_factor method_
    model max_rows metrics trace trace_sample =
  check_knobs ~t_factor ~kappa:None ~trace_sample;
  check_no_adaptive method_;
  let ns = parse_ns ns in
  check_feedback_grid ~per_n ~jobs ~max_rows;
  let calibration = Option.map load_calibration calibration_file in
  with_obs ~metrics ~trace ~trace_sample (fun () ->
      let results =
        feedback_run_all ?calibration ~jobs ~max_rows ~model ~method_ ~t_factor
          ~ns ~per_n ~seed ()
      in
      let summaries =
        List.map (fun (spec, runs) -> (spec, Feedback.Summary.of_runs runs)) results
      in
      Option.iter (Printf.printf "calibration: %s\n") calibration_file;
      List.iter
        (fun ((spec : Qgen.spec), s) -> print_feedback_summary spec.name s)
        summaries;
      let total_n =
        List.fold_left
          (fun a (_, (s : Feedback.Summary.t)) -> a + s.n_samples)
          0 summaries
      in
      let total_sum =
        List.fold_left
          (fun a (_, (s : Feedback.Summary.t)) ->
            a +. (s.mean *. float_of_int s.n_samples))
          0.0 summaries
      in
      let plans =
        List.fold_left
          (fun a (_, (s : Feedback.Summary.t)) -> a + s.plans)
          0 summaries
      in
      Printf.printf "overall: mean q-error %.3f over %d samples (%d plans)\n"
        (if total_n = 0 then 1.0 else total_sum /. float_of_int total_n)
        total_n plans;
      Option.iter
        (fun path ->
          let series =
            List.filter_map
              (fun ((spec : Qgen.spec), (s : Feedback.Summary.t)) ->
                match s.depths with
                | [] -> None
                | depths ->
                  Some
                    {
                      Ljqo_report.Chart.name = spec.name;
                      points =
                        List.map
                          (fun (d : Feedback.Summary.depth_stat) ->
                            (band_x d.label, d.p95))
                          depths;
                    })
              summaries
          in
          write_output (Some path)
            (Ljqo_report.Chart.render_svg
               ~title:"feedback: p95 q-error by join depth"
               ~x_label:"join depth (4 = depth 4+)" ~y_label:"p95 q-error"
               series))
        svg)

let feedback_calibration_arg =
  Arg.(
    value & opt (some file) None
    & info [ "calibration" ] ~docv:"FILE"
        ~doc:
          "Apply a calibration file during measurement (write one with ljqo \
           feedback calibrate).")

let feedback_svg_arg =
  Arg.(
    value & opt (some string) None
    & info [ "svg" ] ~docv:"FILE"
        ~doc:"Also render per-depth p95 q-error per variation as SVG to $(docv).")

let feedback_report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Execute optimized plans across the workload variations and report \
          per-depth q-error quantiles")
    Term.(
      const feedback_report $ feedback_calibration_arg $ feedback_svg_arg
      $ feedback_ns_arg $ feedback_per_n_arg $ learn_jobs_arg $ seed_arg
      $ t_factor_arg $ method_arg $ model_arg $ max_rows_arg $ metrics_arg
      $ trace_arg $ trace_sample_arg)

let feedback_calibrate ns per_n jobs seed t_factor method_ model max_rows output
    metrics trace trace_sample =
  check_knobs ~t_factor ~kappa:None ~trace_sample;
  check_no_adaptive method_;
  let ns = parse_ns ns in
  check_feedback_grid ~per_n ~jobs ~max_rows;
  with_obs ~metrics ~trace ~trace_sample (fun () ->
      let before =
        feedback_run_all ~jobs ~max_rows ~model ~method_ ~t_factor ~ns ~per_n
          ~seed ()
      in
      let entries =
        List.filter_map
          (fun ((spec : Qgen.spec), runs) ->
            Option.map (fun f -> (spec.name, f)) (Calibration.fit_runs runs))
          before
      in
      if entries = [] then
        fail_usage "no calibration entries could be fitted (all runs truncated?)";
      let cal = { Calibration.entries } in
      Calibration.save ~path:output cal;
      (* Same grid, same seeds: the "after" column re-measures the identical
         plans under the fitted factors. *)
      let after =
        feedback_run_all ~calibration:cal ~jobs ~max_rows ~model ~method_
          ~t_factor ~ns ~per_n ~seed ()
      in
      let table =
        Ljqo_report.Table.create
          ~title:"mean q-error, uncalibrated vs calibrated"
          ~columns:[ "factor"; "before"; "after" ]
      in
      List.iter2
        (fun ((spec : Qgen.spec), runs_b) (_, runs_a) ->
          let sb = Feedback.Summary.of_runs runs_b in
          let sa = Feedback.Summary.of_runs runs_a in
          match Calibration.factor cal spec.name with
          | None ->
            Ljqo_report.Table.add_row table ~label:spec.name
              ~cells:[ "-"; Printf.sprintf "%.3f" sb.mean; "-" ]
          | Some f ->
            Ljqo_report.Table.add_float_row table ~label:spec.name
              ~fmt:(Printf.sprintf "%.3f")
              [ f; sb.mean; sa.mean ])
        before after;
      Ljqo_report.Table.print table;
      Printf.printf "wrote %s (%d catalog entries)\n" output (List.length entries))

let feedback_calibrate_cmd =
  let output =
    Arg.(
      value & opt string "feedback-calibration.txt"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Calibration file to write.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Fit per-variation selectivity corrections from executed plans and \
          write a calibration file")
    Term.(
      const feedback_calibrate $ feedback_ns_arg $ feedback_per_n_arg
      $ learn_jobs_arg $ seed_arg $ t_factor_arg $ method_arg $ model_arg
      $ max_rows_arg $ output $ metrics_arg $ trace_arg $ trace_sample_arg)

let feedback_cmd =
  Cmd.group
    (Cmd.info "feedback"
       ~doc:
         "Execution-grounded estimation feedback: q-error reports and \
          cost-model calibration")
    [ feedback_report_cmd; feedback_calibrate_cmd ]

(* --- listings ---------------------------------------------------------- *)

let methods_cmd =
  Cmd.v
    (Cmd.info "methods" ~doc:"List the optimization methods")
    Term.(
      const (fun () ->
          List.iter
            (fun m -> Printf.printf "%s\n" (Methods.name m))
            Methods.selectable)
      $ const ())

let benchmarks_cmd =
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the synthetic benchmark specs")
    Term.(
      const (fun () ->
          List.iteri
            (fun i (b : Qgen.spec) ->
              Printf.printf "%d  %-18s %s\n" i b.name b.description)
            (Qgen.default :: Qgen.variations))
      $ const ())

let () =
  let info =
    Cmd.info "ljqo" ~version:"1.0.0"
      ~doc:"Large join query optimization (Swami, SIGMOD 1989)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            optimize_cmd;
            explain_cmd;
            run_cmd;
            compare_cmd;
            sql_cmd;
            exact_cmd;
            dp_cmd;
            space_cmd;
            bushy_cmd;
            inspect_cmd;
            workload_cmd;
            serve_file_cmd;
            serve_cmd;
            loadgen_cmd;
            learn_cmd;
            feedback_cmd;
            obs_cmd;
            methods_cmd;
            benchmarks_cmd;
          ]))

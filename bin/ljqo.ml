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
     ljqo methods / ljqo benchmarks

   Every flag is declared once, as a term that checks its own value while
   the command line is read: a bad value exits 2 with [ljqo: --flag ...]
   before any command body runs.  The subcommands are built from those
   terms and from the shared groups below (budget, obs, method, grid,
   server), so a body checks a flag only against what it loads. *)

open Cmdliner
open Term.Syntax
open Ljqo_core
module Qgen = Ljqo_querygen.Benchmark
module Obs = Ljqo_obs.Obs
module Learn = Ljqo_learn

let fail_usage fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ljqo: " ^ msg);
      exit 2)
    fmt

(* --- flag kinds --------------------------------------------------------- *)

(* [checked check term] runs [check] on the flag's value as the command line
   is read. *)
let checked check term =
  let+ v = term in
  check v;
  v

let positive_int name k =
  if k < 1 then fail_usage "--%s must be a positive integer, got %d" name k

let positive_number ?(finite = false) name x =
  if not (x > 0.0 && ((not finite) || Float.is_finite x)) then
    fail_usage "--%s must be a positive number, got %g" name x

let int_flag ?(aliases = []) name ~docv ~doc default =
  checked (positive_int name)
    Arg.(value & opt int default & info (name :: aliases) ~docv ~doc)

let int_flag_opt ?(aliases = []) name ~docv ~doc =
  checked
    (Option.iter (positive_int name))
    Arg.(value & opt (some int) None & info (name :: aliases) ~docv ~doc)

let number_flag name ~docv ~doc default =
  checked (positive_number name)
    Arg.(value & opt float default & info [ name ] ~docv ~doc)

let number_flag_opt name ~docv ~doc =
  checked
    (Option.iter (positive_number name))
    Arg.(value & opt (some float) None & info [ name ] ~docv ~doc)

(* An output path is proven writable before any work, so a bad one cannot
   fail after a long run: its missing parent directories are created, then
   a file is opened without truncation (or created and removed), and a
   directory gets a probe file (or is created and removed). *)
let writable ~dir name path =
  (try
     Obs.mkdir_p (Filename.dirname path);
     match (dir, Sys.file_exists path) with
     | false, false ->
       close_out (open_out_gen [ Open_wronly; Open_creat; Open_excl ] 0o644 path);
       Sys.remove path
     | false, true -> close_out (open_out_gen [ Open_wronly; Open_append ] 0 path)
     | true, false ->
       Sys.mkdir path 0o755;
       Sys.rmdir path
     | true, true ->
       if not (Sys.is_directory path) then
         raise (Sys_error (path ^ ": Not a directory"));
       Sys.remove (Filename.temp_file ~temp_dir:path "ljqo" ".probe")
   with Sys_error e -> fail_usage "--%s: cannot write %s: %s" name path e);
  path

let output_file ?vopt name ~doc =
  Term.map
    (Option.map (writable ~dir:false name))
    Arg.(value & opt ?vopt (some string) None & info [ name ] ~docv:"FILE" ~doc)

(* [-o FILE]: [output_or_stdout] prints to stdout when it is absent,
   [output_to] writes a default file. *)
let output_info ~doc = Arg.info [ "output"; "o" ] ~docv:"FILE" ~doc

let output_or_stdout =
  Term.map
    (Option.map (writable ~dir:false "output"))
    Arg.(
      value & opt (some string) None
      & output_info ~doc:"Write to FILE instead of stdout.")

let output_to ~doc default =
  Term.map
    (writable ~dir:false "output")
    Arg.(value & opt string default & output_info ~doc)

(* The trimmed, non-empty items of a comma-separated flag value. *)
let comma_items s =
  List.filter (( <> ) "") (List.map String.trim (String.split_on_char ',' s))

let write_output output content =
  match output with
  | None -> print_string content
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc content);
    Printf.printf "wrote %s\n" path

(* --- flags -------------------------------------------------------------- *)

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

let seed_arg ?(default = 42) ?(doc = "Random seed.") () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let model_arg =
  Arg.(
    value
    & opt model_conv (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)
    & info [ "model" ] ~docv:"MODEL" ~doc:"Cost model: memory or disk.")

let benchmark_arg ~doc =
  Arg.(
    value & opt benchmark_conv Qgen.default
    & info [ "benchmark"; "b" ] ~docv:"NAME" ~doc)

let per_n_arg ~default ~docv ~doc = int_flag "per-n" ~docv ~doc default

let jobs_arg ~doc = int_flag_opt "jobs" ~aliases:[ "j" ] ~docv:"J" ~doc

let max_rows_arg ~docv ~doc = int_flag "max-rows" ~docv ~doc 1_000_000

let passes_arg ~doc = int_flag "passes" ~docv:"P" ~doc 1

let cache_capacity_arg =
  int_flag "cache-capacity" ~docv:"K" ~doc:"Plan cache capacity." 1024

let svg_arg ~doc = output_file "svg" ~doc

let query_file_arg =
  Arg.(
    required & pos 0 (some file) None & info [] ~docv:"QUERY.qdl" ~doc:"Query file.")

let workload_dir_arg ~doc =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD_DIR" ~doc)

let load_query path =
  try Ljqo_qdl.Parser.parse_file path with
  | Ljqo_qdl.Parser.Error { line; message } ->
    Printf.eprintf "%s:%d: %s\n" path line message;
    exit 1

(* --- budget: --t-factor, --kappa ---------------------------------------- *)

type budget = { t_factor : float; kappa : int option }

(* Non-finite limits are refused: t·N²·κ would only saturate the budget. *)
let t_factor_arg =
  checked
    (positive_number ~finite:true "t-factor")
    Arg.(
      value & opt float 9.0
      & info [ "t-factor"; "t" ] ~docv:"T"
          ~doc:"Time limit as a multiple of N^2 (the paper's budgets).")

let budget =
  let+ t_factor = t_factor_arg
  and+ kappa =
    int_flag_opt "kappa" ~docv:"K" ~doc:"Ticks per time unit (calibration knob)."
  in
  { t_factor; kappa }

let ticks_for query { t_factor; kappa } =
  Optimizer.time_limit_ticks ?ticks_per_unit:kappa ~t_factor ~query ()

(* --- obs: --metrics, --trace, --trace-sample ---------------------------- *)

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

let obs : ((unit -> unit) -> unit) Term.t =
  let+ trace_sample =
    int_flag "trace-sample" ~docv:"N"
      ~doc:"Keep every $(docv)th trace event per event type." 1
  and+ metrics =
    output_file "metrics"
      ~vopt:(Some (Filename.concat "results" "METRICS_ljqo.json"))
      ~doc:
        "Collect search counters and write them to $(docv) as JSON on exit \
         (default results/METRICS_ljqo.json when $(docv) is omitted)."
  and+ trace =
    output_file "trace"
      ~doc:"Stream sampled search trace events to $(docv) as JSON lines."
  in
  fun f -> with_obs ~metrics ~trace ~trace_sample f

(* --- method: --method, and the routed form's portfolio and learn flags --- *)

let method_arg =
  Arg.(
    value & opt method_conv Methods.IAI
    & info [ "method"; "m" ] ~docv:"METHOD"
        ~doc:
          "Optimization method (II, SA, SAA, SAK, IAI, IKI, IAL, AGI, KBI, \
           2PO, portfolio, adaptive).")

(* The subcommands without --learn-model have no model to route with, so
   they refuse adaptive instead of quietly running its portfolio
   fallback. *)
let fixed_method =
  checked
    (fun m ->
      if m = Methods.Adaptive then
        fail_usage
          "--method adaptive needs --learn-model, which only optimize, \
           serve-file, serve and loadgen take")
    method_arg

let learn_model_arg ~doc =
  Arg.(value & opt (some string) None & info [ "learn-model" ] ~docv:"FILE" ~doc)

let load_learn_model path =
  match Learn.Model.load ~path with
  | Ok m -> m
  | Error e -> fail_usage "cannot load model %s: %s" path e

(* The portfolio knobs; the resulting [Methods.config] is inert for the
   non-portfolio methods. *)
let portfolio_config =
  let+ width =
    int_flag_opt "portfolio-width" ~docv:"K"
      ~doc:"Portfolio replicates per round (method portfolio only; default 4)."
  and+ legs =
    Arg.(
      value & opt (some string) None
      & info [ "portfolio-legs" ] ~docv:"LEGS"
          ~doc:
            "Comma-separated portfolio legs — at least two of II, SA, 2PO \
             (method portfolio only; default II,SA,2PO).")
  in
  let default = Methods.default_config.Methods.portfolio_params in
  let leg p =
    match Portfolio.leg_of_name p with
    | Some l -> l
    | None -> fail_usage "--portfolio-legs: unknown leg %s (valid: II, SA, 2PO)" p
  in
  let legs =
    match legs with
    | None -> default.Portfolio.legs
    | Some s ->
      let legs = List.map leg (comma_items s) in
      if List.length (List.sort_uniq compare legs) < 2 then
        fail_usage
          "--portfolio-legs needs at least two distinct legs of II, SA, 2PO, got %s"
          (if legs = [] then "none" else s);
      legs
  in
  let width = Option.value width ~default:default.Portfolio.width in
  {
    Methods.default_config with
    Methods.portfolio_params = { default with Portfolio.width; legs };
  }

type routed = {
  method_ : Methods.t;
  config : Methods.config;
  routing : Learn.Model.t option;  (** the loaded --learn-model *)
  learn : unit -> Learn.Online.t option;
      (** a fresh online-learning state seeded with [routing]: adaptive
          serves through one, a fixed method through none *)
}

(* The method of the subcommands that can route adaptively.  Adaptive
   without a model dies before any work, and a learn flag on a fixed method
   is flagged rather than ignored; [~serving] adds --learn-epoch, which is
   checked before the model loads. *)
let routed_method ~serving =
  let+ method_ = method_arg
  and+ model_file =
    learn_model_arg
      ~doc:
        "Trained routing model for --method adaptive (write one with ljqo \
         learn train)."
  and+ epoch =
    if serving then
      int_flag_opt "learn-epoch" ~docv:"N"
        ~doc:
          "Refresh the adaptive routing model every $(docv) served requests \
           (--method adaptive only; default 32)."
    else Term.const None
  and+ config = portfolio_config in
  (match method_ with
  | Methods.Adaptive ->
    if model_file = None then
      fail_usage
        "--method adaptive requires --learn-model FILE (train one with ljqo \
         learn train)"
  | _ ->
    if model_file <> None then
      fail_usage "--learn-model only applies to --method adaptive";
    if epoch <> None then fail_usage "--learn-epoch only applies to --method adaptive");
  let routing = Option.map load_learn_model model_file in
  let learn () =
    if method_ = Methods.Adaptive then
      Some (Learn.Online.create ?epoch ?initial:routing ())
    else None
  in
  { method_; config; routing; learn }

(* --- grid: --ns, --per-n, --jobs ---------------------------------------- *)

type grid = { ns : int list; per_n : int; jobs : int option }

let parse_ns s =
  let join_count p =
    match int_of_string_opt p with
    | Some n when n >= 2 -> n
    | _ -> fail_usage "--ns expects comma-separated join counts >= 2, got %S" p
  in
  match List.map join_count (comma_items s) with
  | [] -> fail_usage "--ns expects at least one join count"
  | ns -> ns

let grid ~ns ~ns_doc ~per_n_doc =
  let+ ns =
    Term.map parse_ns
      Arg.(value & opt string ns & info [ "ns" ] ~docv:"N1,N2,.." ~doc:ns_doc)
  and+ per_n = per_n_arg ~default:2 ~docv:"Q" ~doc:per_n_doc
  and+ jobs = jobs_arg ~doc:"Domains to parallelize over (a pure speed knob)." in
  { ns; per_n; jobs }

(* --- server: the serving subcommands' service and server knobs --------- *)

module Service = Ljqo_service.Service
module Server = Ljqo_service.Server
module Plan_cache = Ljqo_service.Plan_cache

type serving = {
  config : Service.config;
  cache_capacity : int;
  learn : unit -> Learn.Online.t option;
}

(* What serve-file, serve and loadgen serve with: the method group, the
   cost model, the budget and the seed, in one [Service.config]. *)
let serving =
  let+ budget = budget
  and+ routed = routed_method ~serving:true
  and+ model = model_arg
  and+ seed = seed_arg ()
  and+ cache_capacity = cache_capacity_arg in
  let { t_factor; kappa } = budget in
  {
    config =
      {
        Service.method_ = routed.method_;
        methods_config = routed.config;
        model;
        budget = Service.Time_limit { t_factor; kappa };
        seed;
      };
    cache_capacity;
    learn = routed.learn;
  }

let server =
  let+ serving = serving
  and+ workers = int_flag "workers" ~docv:"W" ~doc:"Worker domains serving requests." 2
  and+ queue_capacity =
    int_flag "queue-capacity" ~docv:"Q"
      ~doc:"Bounded request-queue depth (the admission-control limit)." 64
  and+ tenant_slots =
    int_flag_opt "tenant-slots" ~docv:"K"
      ~doc:
        "Per-tenant in-flight request cap (fair-share admission); unlimited \
         when omitted."
  and+ request_deadline =
    number_flag_opt "request-deadline" ~docv:"SEC"
      ~doc:
        "Per-request wall-clock deadline in seconds: an overloaded worker \
         serves its incumbent plan as timed-out instead of blocking the \
         queue."
  in
  ( serving,
    {
      Server.service = serving.config;
      workers;
      queue_capacity;
      tenant_slots;
      request_deadline;
    }
  )

(* A drain timeout is a serve-side concept: loadgen always drains to
   completion, so its report covers every accepted request. *)
let drain_timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "drain-timeout" ] ~docv:"SEC"
        ~doc:"Give up on the graceful drain after $(docv) seconds (serve only).")

(* --- generate ---------------------------------------------------------- *)

let generate benchmark n_joins seed output =
  let rng = Ljqo_stats.Rng.create seed in
  let query = Qgen.generate_query benchmark ~n_joins ~rng in
  let text = Ljqo_qdl.Printer.to_string query in
  match output with
  | None -> print_string text
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Printf.printf "wrote %s (%d relations, %d joins)\n" path
      (Ljqo_catalog.Query.n_relations query)
      (Ljqo_catalog.Query.n_joins query)

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic query in QDL form")
    Term.(
      const generate
      $ benchmark_arg ~doc:"Benchmark distribution to draw the query from."
      $ int_flag "n-joins" ~aliases:[ "n" ] ~docv:"N"
          ~doc:"Number of joins (spanning edges)." 30
      $ seed_arg () $ output_or_stdout)

(* --- optimize ---------------------------------------------------------- *)

let relation_name query i =
  (Ljqo_catalog.Query.relation query i).Ljqo_catalog.Relation.name

let print_plan query plan =
  Printf.printf "plan: %s\n"
    (String.concat " |><| " (Array.to_list (Array.map (relation_name query) plan)))

let optimize file budget (m : routed) model seed with_obs =
  with_obs @@ fun () ->
  let query = load_query file in
  let ticks = ticks_for query budget in
  let route, route_ticks, resolution =
    Learn.Router.resolve m.routing m.method_ query ~ticks
  in
  Learn.Router.bump route resolution;
  let r =
    Optimizer.optimize ~config:m.config ~method_:route ~model ~ticks:route_ticks
      ~seed query
  in
  let module M = (val model : Ljqo_cost.Cost_model.S) in
  Printf.printf "method %s, cost model %s, budget %d ticks (%.3gN^2)\n"
    (Methods.name m.method_) M.name ticks budget.t_factor;
  print_plan query r.plan;
  Printf.printf "permutation: %s\n" (Plan.to_string r.plan);
  Printf.printf "estimated cost: %.6g (lower bound %.6g)%s\n" r.cost r.lower_bound
    (if r.converged then ", converged" else "");
  Printf.printf "ticks used: %d\n" r.ticks_used

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Choose a join order for a query")
    Term.(
      const optimize $ query_file_arg $ budget $ routed_method ~serving:false
      $ model_arg $ seed_arg () $ obs)

(* --- explain ----------------------------------------------------------- *)

(* A plan names each relation at most once, by id or by name; partial and
   cross-product plans are kept (with a warning) because studying them is
   what explain is for. *)
let parse_plan query s =
  let n = Ljqo_catalog.Query.n_relations query in
  let name = relation_name query in
  let resolve p =
    match int_of_string_opt p with
    | Some i when i >= 0 && i < n -> i
    | _ -> (
      match List.find_opt (fun i -> name i = p) (List.init n Fun.id) with
      | Some i -> i
      | None -> fail_usage "--plan: unknown relation %S" p)
  in
  let plan =
    List.map resolve
      (List.filter (( <> ) "") (String.split_on_char ' ' (String.trim s)))
  in
  if plan = [] then fail_usage "--plan must name at least one relation";
  let seen = Array.make n false in
  List.iter
    (fun i ->
      if seen.(i) then fail_usage "--plan names relation %s twice" (name i);
      seen.(i) <- true)
    plan;
  Array.of_list plan

let explain file plan_str model =
  let query = load_query file in
  let plan =
    match plan_str with
    | Some s -> parse_plan query s
    | None ->
      let ticks = Optimizer.time_limit_ticks ~t_factor:9.0 ~query () in
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
      Printf.printf "%-4d %-16s %14.4g %14.4g\n" i (relation_name query r)
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

let run_query file budget method_ model seed max_rows with_obs =
  with_obs @@ fun () ->
  let query = load_query file in
  let ticks = ticks_for query budget in
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
  Cmd.v
    (Cmd.info "run" ~doc:"Optimize a query, then execute it on synthetic data")
    Term.(
      const run_query $ query_file_arg $ budget $ fixed_method $ model_arg
      $ seed_arg ()
      $ max_rows_arg ~docv:"ROWS" ~doc:"Abort execution beyond this size."
      $ obs)

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
  let query = load_query file in
  let stats = Space_stats.sample ~n_samples:samples ~seed model query in
  Format.printf "%a@." Space_stats.pp stats

let space_cmd =
  Cmd.v
    (Cmd.info "space" ~doc:"Sample the valid-plan cost distribution of a query")
    Term.(
      const space $ query_file_arg $ model_arg $ seed_arg ()
      $ int_flag "samples" ~docv:"K" ~doc:"Number of random valid plans to cost." 200)

(* --- bushy ------------------------------------------------------------- *)

let bushy file model budget seed =
  let query = load_query file in
  let ticks = ticks_for query budget in
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
    Term.(const bushy $ query_file_arg $ model_arg $ budget $ seed_arg ())

(* --- compare ----------------------------------------------------------- *)

let compare_methods file model budget seed with_obs =
  with_obs @@ fun () ->
  let query = load_query file in
  let ticks = ticks_for query budget in
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
      const compare_methods $ query_file_arg $ model_arg $ budget $ seed_arg ()
      $ obs)

(* --- sql --------------------------------------------------------------- *)

let sql file catalog_file budget method_ model seed execute =
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
  let ticks = ticks_for query budget in
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
      const sql $ query_file_arg $ catalog_arg $ budget $ fixed_method $ model_arg
      $ seed_arg () $ execute_arg)

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
  let large =
    Arg.(
      value & flag
      & info [ "large" ] ~doc:"Use N = 10..100 instead of 10..50.")
  in
  let out =
    Term.map (writable ~dir:true "out")
      Arg.(
        required & opt (some string) None
        & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate and save a whole benchmark workload")
    Term.(
      const workload
      $ benchmark_arg ~doc:"Benchmark distributions."
      $ per_n_arg ~default:10 ~docv:"K" ~doc:"Queries per value of N."
      $ large $ seed_arg () $ out)

(* --- serve-file -------------------------------------------------------- *)

let load_workload_queries dir =
  match Ljqo_querygen.Workload_io.load_result ~dir with
  | Ok [] -> fail_usage "workload %s is empty" dir
  | Ok entries ->
    Array.of_list
      (List.map (fun e -> e.Ljqo_querygen.Workload_io.query) entries)
  | Error e ->
    fail_usage "cannot load workload %s: %s" dir
      (Ljqo_querygen.Workload_io.error_to_string e)

let serve_file dir (s : serving) jobs passes with_obs =
  with_obs @@ fun () ->
  let queries = load_workload_queries dir in
  let service =
    Service.create ~cache_capacity:s.cache_capacity ?learn:(s.learn ()) s.config
  in
  let module M = (val s.config.model : Ljqo_cost.Cost_model.S) in
  Printf.printf "serving %d queries from %s (method %s, model %s, cache %d)\n"
    (Array.length queries) dir
    (Methods.name s.config.method_)
    M.name s.cache_capacity;
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

let serving_workload_dir =
  workload_dir_arg ~doc:"Workload directory (QDL files + MANIFEST, see ljqo workload)."

let serve_file_cmd =
  Cmd.v
    (Cmd.info "serve-file"
       ~doc:"Optimize a saved workload through the caching service")
    Term.(
      const serve_file $ serving_workload_dir $ serving
      $ jobs_arg ~doc:"Serving domains (default: all cores); a pure speed knob."
      $ passes_arg ~doc:"Serve the workload $(docv) times through the same cache."
      $ obs)

(* --- serve / loadgen ---------------------------------------------------- *)

module Hist = Ljqo_obs.Hist

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
let serve dir ((s : serving), (config : Server.config)) drain_timeout passes
    with_obs =
  with_obs @@ fun () ->
  let queries = load_workload_queries dir in
  let stop = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
  Sys.set_signal Sys.sigterm handler;
  Sys.set_signal Sys.sigint handler;
  let server =
    Server.create ~cache_capacity:s.cache_capacity ?learn:(s.learn ()) config
  in
  let module M = (val s.config.model : Ljqo_cost.Cost_model.S) in
  Printf.printf
    "serving %d queries from %s (%d workers, queue %d, method %s, model %s)\n%!"
    (Array.length queries) dir config.workers config.queue_capacity
    (Methods.name s.config.method_)
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
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent optimizer server over a workload (SIGTERM \
          drains gracefully)")
    Term.(
      const serve $ serving_workload_dir $ server
      $ checked (Option.iter (positive_number "drain-timeout")) drain_timeout_arg
      $ passes_arg ~doc:"Submit the workload $(docv) times through the same cache."
      $ obs)

(* Open-loop load generation: the arrival schedule (exponential gaps), the
   query choices and the tenant assignment are all drawn from one seeded
   stream, so the offered load is reproducible — only the wall-clock
   outcomes (latency, shed counts) vary with the machine. *)
let loadgen dir ((s : serving), (config : Server.config)) rate requests tenants
    sweep () svg with_obs =
  let rates = Option.value sweep ~default:[ rate ] in
  with_obs @@ fun () ->
  let queries = load_workload_queries dir in
  let run_rate rate =
    (* A fresh server per rate gets a fresh learn state: each sweep point
       starts from the same loaded model. *)
    let server =
      Server.create ~cache_capacity:s.cache_capacity ?learn:(s.learn ()) config
    in
    let rng = Ljqo_stats.Rng.create s.config.seed in
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
  Option.iter
    (fun path ->
      let series =
        [
          { Ljqo_report.Chart.name = "goodput"; points = curve };
          {
            Ljqo_report.Chart.name = "offered";
            points = List.map (fun (r, _) -> (r, r)) curve;
          };
        ]
      in
      write_output (Some path)
        (Ljqo_report.Chart.render_svg ~title:"goodput vs offered load"
           ~x_label:"offered rate (req/s)" ~y_label:"goodput (req/s)" series))
    svg

let loadgen_cmd =
  let sweep =
    let+ rates =
      Arg.(
        value & opt (some string) None
        & info [ "sweep" ] ~docv:"R1,R2,.."
            ~doc:"Run once per rate and plot the goodput curve across them.")
    in
    let rate tok =
      match float_of_string_opt (String.trim tok) with
      | Some r when r > 0.0 -> r
      | _ -> fail_usage "--sweep expects comma-separated positive rates, got %S" tok
    in
    Option.map (fun s -> List.map rate (String.split_on_char ',' s)) rates
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay a workload open-loop at a target arrival rate")
    Term.(
      const loadgen
      $ workload_dir_arg ~doc:"Workload directory to replay (see ljqo workload)."
      $ server
      $ number_flag "rate" ~docv:"R" ~doc:"Target arrival rate, requests/second." 10.0
      $ int_flag "requests" ~aliases:[ "n" ] ~docv:"N"
          ~doc:"Number of arrivals to offer." 64
      $ int_flag "tenants" ~docv:"T"
          ~doc:"Spread arrivals round a pool of $(docv) synthetic tenants." 1
      $ sweep
      $ Term.map
          (Option.iter (fun _ -> fail_usage "--drain-timeout only applies to serve"))
          drain_timeout_arg
      $ svg_arg ~doc:"Write a goodput-vs-offered-load SVG chart to $(docv)."
      $ obs)

(* --- obs ---------------------------------------------------------------- *)

module Export = Ljqo_obs.Export

let load_events path =
  match Export.events_of_file path with
  | Ok events -> events
  | Error (lineno, msg) -> fail_usage "%s:%d: %s" path lineno msg
  | exception Sys_error e -> fail_usage "%s" e

let trace_file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl" ~doc:"JSONL trace written with --trace.")

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
      $ trace_file_arg $ output_or_stdout)

let obs_export_flame_cmd =
  Cmd.v
    (Cmd.info "export-flame"
       ~doc:"Convert a trace's spans to folded-stack flamegraph text")
    Term.(
      const (fun file output -> write_output output (Export.flame (load_events file)))
      $ trace_file_arg $ output_or_stdout)

(* Re-run the paper's core randomized methods on one query with trajectory
   capture on, and render incumbent scaled cost against ticks charged. *)
let obs_trajectory file model budget seed output =
  let query = load_query file in
  if not (Ljqo_catalog.Query.is_connected query) then
    fail_usage "trajectory needs a connected query (got a cross-product query)";
  let ticks = ticks_for query budget in
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
      (Filename.basename file) M.name budget.t_factor
  in
  write_output output
    (Ljqo_report.Chart.render_svg ~title ~x_label:"ticks charged"
       ~y_label:"incumbent cost" series)

let obs_trajectory_cmd =
  Cmd.v
    (Cmd.info "trajectory"
       ~doc:"Run II, SA and two-phase on a query and plot cost vs ticks as SVG")
    Term.(
      const obs_trajectory $ query_file_arg $ model_arg $ budget $ seed_arg ()
      $ output_or_stdout)

let obs_cmd =
  Cmd.group
    (Cmd.info "obs" ~doc:"Inspect and export observability data")
    [ obs_summary_cmd; obs_export_chrome_cmd; obs_export_flame_cmd; obs_trajectory_cmd ]

(* --- learn -------------------------------------------------------------- *)

let learn_grid =
  grid ~ns:"10,20" ~ns_doc:"Join counts to cover, one workload ladder rung per value."
    ~per_n_doc:"Queries per join count per benchmark spec."

(* Collect the (benchmark x size x route x budget-fraction) sample grid and
   fit the routing model.  Everything downstream of the seeds is
   deterministic, so the written model file is bit-identical across runs
   and job counts. *)
let learn_train t_factor { ns; per_n; jobs } lambda seed model dump_samples output =
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
  Cmd.v
    (Cmd.info "train"
       ~doc:"Collect optimizer samples over the benchmark grid and fit a \
             routing model")
    Term.(
      const learn_train $ t_factor_arg $ learn_grid
      $ number_flag "lambda" ~docv:"L" ~doc:"Ridge regularizer (positive)."
          Learn.Model.lambda_default
      $ seed_arg () $ model_arg
      $ output_file "dump-samples"
          ~doc:"Also write the training samples to $(docv) as JSON lines."
      $ output_to ~doc:"Model file to write." "learn-model.txt")

(* The ROADMAP's evaluation table: mean scaled cost at a fixed budget,
   adaptive vs each fixed method, across the paper's nine variations. *)
let learn_eval t_factor { ns; per_n; jobs } m seed cost_model =
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
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Compare adaptive routing against each fixed method across the \
             nine workload variations")
    Term.(
      const learn_eval $ t_factor_arg $ learn_grid
      $ Term.map (Option.map load_learn_model)
          (learn_model_arg
             ~doc:
               "Routing model to evaluate; without it adaptive is the \
                portfolio-fallback baseline.")
      $ seed_arg ~default:43
          ~doc:"Random seed (default 43: disjoint from train's 42)." ()
      $ model_arg)

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
let feedback_grid =
  grid ~ns:"6,8" ~ns_doc:"Join counts to execute, one workload rung per value."
    ~per_n_doc:"Queries per join count per variation."

let feedback_max_rows =
  max_rows_arg ~docv:"R"
    ~doc:
      "Executor row cap per intermediate; overflowing plans are counted and \
       truncated, never fatal."

(* Every variation through the feedback pipeline.  A calibration entry (if
   any) keys on the variation name and applies to the measurement only —
   optimization is always uncalibrated, so before and after score the same
   plans. *)
let feedback_run_all ?calibration { ns; per_n; jobs } ~max_rows ~model ~method_
    ~t_factor ~seed () =
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

let feedback_report t_factor method_ grid max_rows calibration seed model svg
    with_obs =
  with_obs @@ fun () ->
  let results =
    feedback_run_all ?calibration:(Option.map snd calibration) grid ~max_rows
      ~model ~method_ ~t_factor ~seed ()
  in
  let summaries =
    List.map (fun (spec, runs) -> (spec, Feedback.Summary.of_runs runs)) results
  in
  Option.iter (fun (path, _) -> Printf.printf "calibration: %s\n" path) calibration;
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
           ~x_label:"join depth (4 = depth 4+)" ~y_label:"p95 q-error" series))
    svg

let feedback_report_cmd =
  let calibration =
    let+ path =
      Arg.(
        value & opt (some file) None
        & info [ "calibration" ] ~docv:"FILE"
            ~doc:
              "Apply a calibration file during measurement (write one with \
               ljqo feedback calibrate).")
    in
    Option.map
      (fun path ->
        match Calibration.load ~path with
        | Ok c -> (path, c)
        | Error e -> fail_usage "cannot load calibration %s: %s" path e)
      path
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Execute optimized plans across the workload variations and report \
          per-depth q-error quantiles")
    Term.(
      const feedback_report $ t_factor_arg $ fixed_method $ feedback_grid
      $ feedback_max_rows $ calibration $ seed_arg () $ model_arg
      $ svg_arg
          ~doc:"Also render per-depth p95 q-error per variation as SVG to $(docv)."
      $ obs)

let feedback_calibrate t_factor method_ grid max_rows seed model output with_obs =
  with_obs @@ fun () ->
  let before =
    feedback_run_all grid ~max_rows ~model ~method_ ~t_factor ~seed ()
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
    feedback_run_all ~calibration:cal grid ~max_rows ~model ~method_ ~t_factor
      ~seed ()
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
  Printf.printf "wrote %s (%d catalog entries)\n" output (List.length entries)

let feedback_calibrate_cmd =
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Fit per-variation selectivity corrections from executed plans and \
          write a calibration file")
    Term.(
      const feedback_calibrate $ t_factor_arg $ fixed_method $ feedback_grid
      $ feedback_max_rows $ seed_arg () $ model_arg
      $ output_to ~doc:"Calibration file to write." "feedback-calibration.txt"
      $ obs)

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

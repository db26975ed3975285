(* feedback-exec: [Feedback.run_spec] on two domains over small queries.
   Executing the plans ([Executor.run] over [Relation_data]) takes nearly
   all of its time and the search only a sliver, so this is the workload on
   which lib/exec and lib/feedback do the work.  The timed operation is the
   whole [run_spec] call; a replica built from the same public pieces
   (generate, optimize, generate data, observe, measure) gives the per-layer
   split and the plans the output checks and the nested-loop oracle see. *)

open Bench_common
module Feedback = Ljqo_feedback.Feedback
module Executor = Ljqo_exec.Executor
module Relation_data = Ljqo_exec.Relation_data
module Methods = Ljqo_core.Methods
module Optimizer = Ljqo_core.Optimizer
module Benchmark = Ljqo_querygen.Benchmark

let method_ = Methods.IAI
let t_factor = 1.0
let sizes = [ 3; 4; 5; 6 ]
let calls = 20  (* each over every size *)
let per_n = 10
let jobs = 2
let replica_per_n = 8

(* Row cap per execution: a plan whose intermediate grows past it is cut
   and counted in [exec.truncated], which keeps the run's memory small. *)
let max_rows = 10_000

(* Nested-loop oracle only where it inspects at most this many tuple
   pairs. *)
let oracle_pairs = 2_000_000

type call = { seed : int }

type item = {
  n_joins : int;
  k : int;  (** replicate of this size *)
  index : int;
  query : Query.t;
  data : Relation_data.t array;
  opt_seed : int;
}

let run_call c =
  Feedback.run_spec ~jobs ~max_rows ~model ~method_ ~t_factor ~ns:sizes ~per_n
    ~seed:c.seed Benchmark.default

let output_of (runs : Feedback.run list) =
  String.concat ";"
    (List.map
       (fun (r : Feedback.run) ->
         let m = r.measurement in
         Printf.sprintf "%d/%d %h %s %s %d" r.n_joins r.rep m.mean_qerror
           (match m.cost_ratio with Some x -> Printf.sprintf "%h" x | None -> "-")
           (match m.m_truncated_at with Some d -> string_of_int d | None -> "-")
           (List.length m.samples))
       runs)

let generate_query seed n k =
  Benchmark.generate_query Benchmark.default ~n_joins:n ~rng:(rng_for seed [ 1; n; k ])

let generate_data seed index query =
  Relation_data.generate_all query ~rng:(rng_for seed [ 2; index ])

let setup (ctx : ctx) =
  let calls = List.init calls (fun k -> { seed = mix ctx.seed [ 0; k ] }) in
  let queries, gen_s =
    timed (fun () ->
        List.concat_map
          (fun n -> List.init replica_per_n (fun k -> (n, k, generate_query ctx.seed n k)))
          sizes)
  in
  let items =
    List.mapi
      (fun index (n, k, query) ->
        {
          n_joins = n;
          k;
          index;
          query;
          data = generate_data ctx.seed index query;
          opt_seed = mix ctx.seed [ 3; index ];
        })
      queries
  in
  (calls, items, gen_s)

let nested_loop_pairs query (obs : Feedback.observed) =
  let pairs = ref 0.0 in
  Array.iteri
    (fun i r ->
      if i > 0 && i - 1 < Array.length obs.act_cards then
        pairs := !pairs +. (obs.act_cards.(i - 1) *. Query.cardinality query r))
    obs.plan;
  !pairs

type replica = {
  result : Optimizer.result;
  observed : Feedback.observed;
  rows : float;
  exec_s : float;
  measure_s : float;
}

let run_item ~traced it =
  let ticks = Optimizer.time_limit_ticks ~t_factor ~query:it.query () in
  let result =
    span traced "core.optimize" (fun () ->
        Optimizer.optimize ~method_ ~model ~ticks ~seed:it.opt_seed it.query)
  in
  let observed, exec_s =
    timed (fun () ->
        span traced "exec.run" (fun () ->
            Feedback.observe ~max_rows it.query ~data:it.data result.plan))
  in
  let _, measure_s =
    timed (fun () ->
        span traced "feedback.measure" (fun () ->
            Feedback.measure ~model it.query ~data:it.data observed))
  in
  {
    result;
    observed;
    rows = Array.fold_left ( +. ) 0.0 observed.act_cards;
    exec_s;
    measure_s;
  }

type pass = {
  walls : float list;  (* each call's time, in call order *)
  replicas : replica list;
  pass_wall : float;
  gc : gc_delta;
}

let run (ctx : ctx) =
  Ljqo_stats.Parallel.set_jobs 1;
  let (calls, items, gen_s), setup_s = repeated_setup 9 (fun () -> setup ctx) in
  let calls = Array.of_list calls and items = Array.of_list items in
  (* Check pass, counters on: the reference outputs, the ticks each call
     charges, and the replica's checked plans. *)
  let (reference, call_ticks, replicas, probes), snap =
    with_counters (fun () ->
        let ticks_now () = counter (Obs.snapshot ()) "budget.ticks" in
        let outs =
          Array.map
            (fun c ->
              let t0 = ticks_now () in
              let runs = run_call c in
              record_op ~ok:true "";
              (runs, ticks_now () - t0))
            calls
        in
        let probes0 = counter (Obs.snapshot ()) "exec.probe_comparisons" in
        let reps =
          Array.map
            (fun it ->
              let r = run_item ~traced:false it in
              let budget = Optimizer.time_limit_ticks ~t_factor ~query:it.query () in
              let checked =
                match
                  plan_ok ~query:it.query ~budget ~allowance:(Query.n_relations it.query)
                    ~plan:r.result.plan ~cost:r.result.cost ~ticks_used:r.result.ticks_used
                with
                | Error e -> Error e
                | Ok () -> (
                  match r.observed.result_rows with
                  | Some rows when nested_loop_pairs it.query r.observed <= float_of_int oracle_pairs ->
                    let oracle = Executor.nested_loop_oracle it.query ~data:it.data r.result.plan in
                    if oracle = rows then Ok ()
                    else Error (Printf.sprintf "executor %d rows, nested-loop oracle %d" rows oracle)
                  | _ -> Ok ())
              in
              (match checked with
              | Ok () -> record_op ~ok:true ""
              | Error e -> record_op ~ok:false (Printf.sprintf "replica n=%d: %s" it.n_joins e));
              r)
            items
        in
        let probes = counter (Obs.snapshot ()) "exec.probe_comparisons" - probes0 in
        (Array.map fst outs, Array.map snd outs, reps, probes))
  in
  let expected = Array.map output_of reference in
  let pass_of ~traced _ =
    let t0 = now () in
    let (walls, replicas), gc =
      with_gc (fun () ->
          let walls =
            Array.to_list
              (Array.mapi
                 (fun i c ->
                   let runs, wall =
                     timed (fun () -> span traced "feedback.run_spec" (fun () -> run_call c))
                   in
                   span traced "bench.check" (fun () ->
                       record_op ~ok:(output_of runs = expected.(i))
                         (Printf.sprintf "run_spec call %d: output differs from the check pass" i));
                   wall)
                 calls)
          in
          let replicas =
            if not traced then []
            else
              Array.to_list
                (Array.map
                   (fun it ->
                     span traced "bench.replica" (fun () ->
                         let query =
                           span traced "querygen.generate" (fun () ->
                               generate_query ctx.seed it.n_joins it.k)
                         in
                         let data =
                           span traced "exec.datagen" (fun () ->
                               generate_data ctx.seed it.index query)
                         in
                         run_item ~traced { it with query; data }))
                   items)
          in
          (walls, replicas))
    in
    { walls; replicas; pass_wall = now () -. t0; gc }
  in
  let untraced, traced = timed_passes ctx pass_of in
  let walls ps = List.concat_map (fun p -> p.walls) ps in
  let u_walls = walls untraced in
  let cost_vs_lb =
    geomean
      (Array.to_list
         (Array.mapi (fun i r -> cost_ratio ~query:items.(i).query ~cost:r.result.cost) replicas))
  in
  let all_runs = List.concat (Array.to_list reference) in
  let summary = Feedback.Summary.of_runs all_runs in
  (* Every call's fastest time over the untraced passes (see
     [fastest_per_op]). *)
  let fastest =
    let best = fastest_per_op (List.map (fun p -> p.walls) untraced) in
    Array.to_list (Array.mapi (fun i w -> (w, float_of_int call_ticks.(i))) best)
  in
  let fastest_walls = List.map fst fastest in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ns_per_tick", ns (sum fastest_walls) /. sum (List.map snd fastest));
      ("ns_per_tick_p90", quantile (List.map (fun (w, t) -> ns w /. t) fastest) 0.9);
      ("serve_ms_p50", ms (median fastest_walls));
      ("serve_ms_p99", ms (quantile fastest_walls 0.99));
      ( "goodput_rps",
        float_of_int (per_n * List.length sizes * List.length fastest) /. sum fastest_walls );
    ]
  in
  let rows = Array.fold_left (fun a r -> a +. r.rows) 0.0 replicas in
  let per_layer =
    if not ctx.traced then []
    else begin
      let spans = Obs.spans () and ts = Obs.snapshot () in
      let t = List.concat_map (fun p -> p.replicas) traced in
      let per_item f = ms (mean (List.map f t)) in
      let gc = List.fold_left (fun a p -> gc_add a p.gc) gc_zero traced in
      let tw = walls traced in
      let traced_ticks = List.length traced * Array.fold_left ( + ) 0 call_ticks in
      search_metrics ~traced:ts ~check:snap ~per:(float_of_int (List.length traced))
      @ [
          ("core.minor_words_per_tick", gc.minor_words /. float_of_int (max 1 traced_ticks));
          ("core.cost_vs_lb_geomean", cost_vs_lb);
          ("core.ticks", float_of_int (counter snap "budget.ticks"));
          ("exec.run_ms", per_item (fun r -> r.exec_s));
          ("exec.rows_per_s", sum (List.map (fun r -> r.rows) t) /. sum (List.map (fun r -> r.exec_s) t));
          ("exec.probe_comparisons_per_row", float_of_int probes /. rows);
          ("exec.datagen_ms", mean (span_durations_ms spans "exec.datagen"));
          ( "exec.truncated",
            float_of_int
              (List.length (List.filter (fun (r : Feedback.run) -> r.measurement.m_truncated_at <> None) all_runs)) );
          ("feedback.measure_ms", per_item (fun r -> r.measure_s));
          ("feedback.qerror_mean", summary.mean);
          ("querygen.generate_ms", ms gen_s);
          ("obs.overhead_frac", (sum tw -. sum u_walls) /. sum u_walls);
        ]
      @ accounting ~spans ~traced_wall:(sum (List.map (fun p -> p.pass_wall) traced))
      @ gc_metrics ~ops:(List.length (walls traced) + List.length t) gc
    end
  in
  let cells =
    [
      ("ticks", string_of_int (counter snap "budget.ticks"));
      ("recost_steps", string_of_int (counter snap "recost_steps"));
      ("neighbors_evaluated", string_of_int (counter snap "search.neighbors_evaluated"));
      ("probe_comparisons", string_of_int probes);
      ("qerror_mean", float_cell summary.mean);
      ("cost_vs_lb_geomean", float_cell cost_vs_lb);
      ("outputs", digest_of (Array.to_list expected));
    ]
  in
  { e2e; per_layer; cells }

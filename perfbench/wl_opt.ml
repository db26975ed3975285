(* opt-narrow and opt-wide: [Optimizer.optimize] over a fixed list of
   (query, method) calls, repeated in whole passes.  The two workloads differ
   in the relation count against [Bitset.inline_size]: at most 126 relations
   keep every prefix in two inline words (the [eval_fused] / [Stepper.step]
   path); more take the word-array twins and, with the portfolio, the
   [Parallel] barrier. *)

open Bench_common
module Methods = Ljqo_core.Methods
module Optimizer = Ljqo_core.Optimizer
module Benchmark = Ljqo_querygen.Benchmark
module Bitset = Ljqo_catalog.Bitset

type shape = {
  specs : string list;
  ns : int list;  (** join counts; a query has [n + 1] relations *)
  per_cell : int;  (** queries per (spec, n) *)
  methods : Methods.t list;
  t_factor : float;
  jobs : int;
  narrow : bool;  (** every query must fit [Bitset.inline_size] *)
}

let narrow =
  {
    specs = [ "default"; "graph-star"; "graph-chain" ];
    ns = [ 10; 20; 50; 100 ];
    per_cell = 12;
    methods = [ Methods.II; Methods.SA; Methods.IAI; Methods.Two_phase ];
    t_factor = 0.15;
    jobs = 1;
    narrow = true;
  }

let wide =
  {
    specs = [ "graph-chain"; "graph-dense" ];
    ns = [ 150; 200 ];
    per_cell = 8;
    methods =
      [ Methods.II; Methods.SA; Methods.IAI; Methods.Two_phase; Methods.Portfolio ];
    t_factor = 0.04;
    jobs = 2;
    narrow = false;
  }

type call = {
  n : int;
  query : Query.t;
  method_ : Methods.t;
  ticks : int;
  seed : int;
  allowance : int;  (** ticks one charge may overshoot the budget by *)
}

let spec_named name =
  match
    List.find_opt
      (fun (s : Benchmark.spec) -> s.name = name)
      (Benchmark.default :: Benchmark.variations)
  with
  | Some s -> s
  | None -> failwith ("unknown benchmark spec " ^ name)

(* One charge is a full-plan costing ([n] ticks); the portfolio charges the
   parent a whole round's spend at each barrier. *)
let allowance_for method_ ~ticks ~n_rel =
  match method_ with
  | Methods.Portfolio ->
    let p = Methods.default_config.portfolio_params in
    (ticks / p.rounds) + (p.width * n_rel)
  | _ -> n_rel

let setup (ctx : ctx) shape =
  let queries =
    List.concat
      (List.mapi
         (fun si spec_name ->
           let spec = spec_named spec_name in
           List.concat_map
             (fun n ->
               List.init shape.per_cell (fun rep ->
                   let rng = rng_for ctx.seed [ si; n; rep ] in
                   (n, Benchmark.generate_query spec ~n_joins:n ~rng)))
             shape.ns)
         shape.specs)
  in
  List.iter
    (fun (_, q) ->
      if Query.n_relations q <= Bitset.inline_size <> shape.narrow then
        failwith
          (Printf.sprintf "a query with %d relations is on the wrong side of %d"
             (Query.n_relations q) Bitset.inline_size))
    queries;
  List.concat
    (List.mapi
       (fun qi (n, query) ->
         List.mapi
           (fun mi method_ ->
             let ticks =
               Optimizer.time_limit_ticks ~t_factor:shape.t_factor ~query ()
             in
             {
               n;
               query;
               method_;
               ticks;
               seed = mix ctx.seed [ qi; mi ];
               allowance =
                 allowance_for method_ ~ticks ~n_rel:(Query.n_relations query);
             })
           shape.methods)
       queries)

let optimize c =
  Optimizer.optimize ~method_:c.method_ ~model ~ticks:c.ticks ~seed:c.seed c.query

(* What one call returned, in the form compared across passes and runs. *)
let output_of (r : Optimizer.result) =
  Printf.sprintf "%s %h %d"
    (String.concat "," (Array.to_list (Array.map string_of_int r.plan)))
    r.cost r.ticks_used

let label c = Printf.sprintf "%s n=%d" (Methods.name c.method_) c.n

type sample = { call : call; wall : float; ticks_used : int; eval_s : float }

type pass = { samples : sample list; pass_wall : float; gc : gc_delta }

let run (ctx : ctx) shape =
  Ljqo_stats.Parallel.set_jobs shape.jobs;
  let (calls, gen_s), setup_s =
    repeated_setup 9 (fun () -> timed (fun () -> setup ctx shape))
  in
  let calls = Array.of_list calls in
  (* Check pass: every call once, counters on.  Its outputs are the
     reference the timed passes must reproduce exactly. *)
  let reference, snap =
    with_counters (fun () ->
        Array.map
          (fun c ->
            let r = optimize c in
            (match
               plan_ok ~query:c.query ~budget:c.ticks ~allowance:c.allowance
                 ~plan:r.plan ~cost:r.cost ~ticks_used:r.ticks_used
             with
            | Ok () -> record_op ~ok:true ""
            | Error e -> record_op ~ok:false (label c ^ ": " ^ e));
            r)
          calls)
  in
  let expected = Array.map output_of reference in
  let pass_of ~traced _ =
    let t0 = now () in
    let samples, gc =
      with_gc (fun () ->
          Array.to_list
            (Array.mapi
               (fun i c ->
                 span traced "bench.call" (fun () ->
                     let r, wall =
                       timed (fun () -> span traced "core.optimize" (fun () -> optimize c))
                     in
                     let eval_s =
                       if traced then
                         snd
                           (timed (fun () ->
                                span traced "cost.eval" (fun () ->
                                    Plan_cost.eval model c.query r.plan)))
                       else 0.0
                     in
                     span traced "bench.check" (fun () ->
                         record_op
                           ~ok:(output_of r = expected.(i))
                           (label c ^ ": output differs from the check pass"));
                     { call = c; wall; ticks_used = r.ticks_used; eval_s }))
               calls))
    in
    { samples; pass_wall = now () -. t0; gc }
  in
  let samples_of ps = List.concat_map (fun p -> p.samples) ps in
  let walls ss = List.map (fun s -> s.wall) ss in
  let ticks_of ss = List.fold_left (fun a s -> a + s.ticks_used) 0 ss in
  let untraced, traced = timed_passes ctx pass_of in
  let cost_vs_lb =
    geomean
      (Array.to_list
         (Array.mapi
            (fun i (r : Optimizer.result) -> cost_ratio ~query:calls.(i).query ~cost:r.cost)
            reference))
  in
  let ticks_total =
    Array.fold_left (fun a (r : Optimizer.result) -> a + r.ticks_used) 0 reference
  in
  let cells =
    [
      ("ticks", string_of_int ticks_total);
      ("neighbors_evaluated", string_of_int (counter snap "search.neighbors_evaluated"));
      ("recost_steps", string_of_int (counter snap "recost_steps"));
      ("budget_charges", string_of_int (counter snap "budget.charges"));
      ("cost_vs_lb_geomean", float_cell cost_vs_lb);
      ("outputs", digest_of (Array.to_list expected));
    ]
  in
  let u = samples_of untraced in
  (* Every call's fastest time over the untraced passes (see
     [fastest_per_op]).  Call latencies of different sizes differ a
     hundredfold, so a latency percentile is taken at each size and
     averaged geometrically across sizes. *)
  let fastest =
    let best = fastest_per_op (List.map (fun p -> walls p.samples) untraced) in
    Array.to_list (Array.mapi (fun i c -> (c, best.(i), reference.(i).Optimizer.ticks_used)) calls)
  in
  let at_size n = List.filter (fun (c, _, _) -> c.n = n) fastest in
  let ns_per_tick xs =
    ratio (ns (sum (List.map (fun (_, w, _) -> w) xs)))
      (float_of_int (List.fold_left (fun a (_, _, t) -> a + t) 0 xs))
  in
  let latency q =
    geomean (List.map (fun n -> ms (quantile (List.map (fun (_, w, _) -> w) (at_size n)) q)) shape.ns)
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ns_per_tick", ns_per_tick fastest);
      ( "ns_per_tick_p90",
        quantile (List.map (fun (_, w, t) -> ns w /. float_of_int (max 1 t)) fastest) 0.9 );
      ("serve_ms_p50", latency 0.5);
      ("serve_ms_p99", latency 0.99);
      ( "goodput_rps",
        float_of_int (List.length fastest) /. sum (List.map (fun (_, w, _) -> w) fastest) );
    ]
  in
  let per_layer =
    if not ctx.traced then []
    else begin
      let spans = Obs.spans () in
      let ts = Obs.snapshot () in
      let t = samples_of traced in
      let per_n =
        List.map
          (fun n ->
            (Printf.sprintf "core.ns_per_tick.n%d" n, ns_per_tick (at_size n)))
          shape.ns
      in
      let gc = List.fold_left (fun a p -> gc_add a p.gc) gc_zero traced in
      let steps = List.fold_left (fun a s -> a + Query.n_relations s.call.query - 1) 0 t in
      per_n
      @ search_metrics ~traced:ts ~check:snap ~per:(float_of_int (List.length traced))
      @ [
          ("core.minor_words_per_tick", gc.minor_words /. float_of_int (ticks_of t));
          ("core.portfolio_round_ms_p50", median (span_durations_ms spans "portfolio_round"));
          ("core.cost_vs_lb_geomean", cost_vs_lb);
          ("core.ticks", float_of_int ticks_total);
          ("cost.eval_ns_per_step", ns (sum (List.map (fun s -> s.eval_s) t)) /. float_of_int steps);
          ("querygen.generate_ms", ms gen_s);
          ("obs.overhead_frac", (sum (walls t) -. sum (walls u)) /. sum (walls u));
        ]
      @ accounting ~spans ~traced_wall:(sum (List.map (fun p -> p.pass_wall) traced))
      @ gc_metrics ~ops:(List.length t) gc
    end
  in
  { e2e; per_layer; cells }

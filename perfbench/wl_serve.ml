(* serve-zipf: an open loop of seeded Poisson arrivals into [Server] (one
   worker domain beside the generator).  Requests draw from a Zipf-skewed
   pool that holds relabeled twins and is larger than the plan cache, so
   exact hits make fingerprinting, the cache and the queue the common cost,
   while the cold tail and LRU evictions keep writes beside the reads. *)

open Bench_common
module Service = Ljqo_service.Service
module Server = Ljqo_service.Server
module Plan_cache = Ljqo_service.Plan_cache
module Fingerprint = Ljqo_service.Fingerprint
module Benchmark = Ljqo_querygen.Benchmark
module Relation = Ljqo_catalog.Relation
module Optimizer = Ljqo_core.Optimizer

let pool_size = 200
let cache_capacity = 128
let zipf_exponent = 0.8
let rate = 400.0  (* offered requests per second *)
let t_factor = 0.4
let warmup_requests = 800  (* served before each window's schedule *)
let untraced_windows = 5
let latency_limit = 0.050  (* seconds, from the request's due time *)
let cell_requests = 1000  (* requests the deterministic cells cover *)

(* The same query with its relations renumbered by a random permutation:
   the fingerprint is relabeling-invariant, so a twin hits its original's
   cache entry through the canonical order. *)
let relabel rng q =
  let n = Query.n_relations q in
  let perm = Array.init n Fun.id in
  Rng.shuffle_in_place rng perm;
  let relations = Array.make n (Query.relation q 0) in
  for i = 0 to n - 1 do
    let r = Query.relation q i in
    relations.(perm.(i)) <-
      Relation.make ~id:perm.(i) ~base_cardinality:r.base_cardinality
        ~selections:r.selection_selectivities ~distinct_fraction:r.distinct_fraction ()
  done;
  let edges =
    List.map
      (fun (e : Join_graph.edge) -> { e with u = perm.(e.u); v = perm.(e.v) })
      (Join_graph.edges (Query.graph q))
  in
  Query.make ~relations ~graph:(Join_graph.make ~n edges)

type inputs = {
  pool : Query.t array;  (** in popularity order *)
  lower_bounds : float array;
  budgets : int array;
  requests : int array;  (** pool index of each request, in arrival order *)
}

let arrivals ~seed ~count ~duration =
  (* A Poisson process conditioned on [count] arrivals in [duration]:
     sorted uniform arrival times. *)
  let rng = rng_for seed [ 2; count ] in
  let a = Array.init count (fun _ -> Rng.float rng duration) in
  Array.sort Float.compare a;
  a

let setup (ctx : ctx) ~max_requests =
  (* Sizes are stratified over popularity ranks, so which sizes are hot
     does not change with the seed; every fifth rank is a relabeled twin of
     a random original. *)
  let pool, gen_s =
    timed (fun () ->
        let rng = rng_for ctx.seed [ 0 ] in
        let originals = ref [] in
        Array.init pool_size (fun k ->
            if k mod 5 = 4 then relabel rng (Rng.choose_list rng !originals)
            else begin
              let n = 10 + (k * 7 mod 41) in
              let q =
                Benchmark.generate_query Benchmark.default ~n_joins:n ~rng:(Rng.split rng)
              in
              originals := q :: !originals;
              q
            end))
  in
  let weights = Array.init pool_size (fun k -> 1.0 /. (float_of_int (k + 1) ** zipf_exponent)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make pool_size 0.0 in
  ignore
    (Array.fold_left
       (fun (k, acc) w ->
         let acc = acc +. (w /. total) in
         cdf.(k) <- acc;
         (k + 1, acc))
       (0, 0.0) weights);
  let draw u =
    let rec go lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then go (mid + 1) hi else go lo mid
    in
    go 0 (pool_size - 1)
  in
  (* Stratified draws: each block of [pool_size] requests takes one uniform
     from each of [pool_size] equal strata, in seeded order, so every block
     asks for each rank about as often as the Zipf law says and the cold
     share does not drift with the seed. *)
  let rng = rng_for ctx.seed [ 1 ] in
  let strata = Array.init pool_size Fun.id in
  let requests = Array.make max_requests 0 in
  for i = 0 to max_requests - 1 do
    let k = i mod pool_size in
    if k = 0 then Rng.shuffle_in_place rng strata;
    requests.(i) <- draw ((float_of_int strata.(k) +. Rng.float rng 1.0) /. float_of_int pool_size)
  done;
  ( {
      pool;
      lower_bounds = Array.map (Plan_cost.lower_bound model) pool;
      budgets = Array.map (fun query -> Optimizer.time_limit_ticks ~t_factor ~query ()) pool;
      requests;
    },
    gen_s )

let service_config (ctx : ctx) =
  {
    Service.default_config with
    budget = Service.Time_limit { t_factor; kappa = None };
    seed = mix ctx.seed [ 3 ];
  }

let output_of (d : Service.direct) =
  Printf.sprintf "%s %h %d %s"
    (String.concat "," (Array.to_list (Array.map string_of_int d.d_plan)))
    d.d_cost d.d_ticks_used (Service.source_name d.d_source)

(* Per-request outcome of one open-loop window. *)
type served = {
  idx : int;  (** request index *)
  due : float;  (** seconds into the window's schedule *)
  latency : float;  (** due time to response, seconds *)
  service : float;  (** worker pickup to response, seconds *)
  queue_wait : float;
  direct : Service.direct option;  (** [None]: shed or failed *)
}

type window = {
  served : served list;
  lag : float list;  (** how late the generator submitted each request *)
  fingerprint_us : float list;
  stats : Server.stats;
  wall : float;  (** the measured schedule's *)
  window_wall : float;  (** warm-up included: what the window's spans cover *)
  gc : gc_delta;
}

let pause s = try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* One window on a fresh server.  The first [warmup_requests] of the
   request sequence are submitted together and served before the clock
   starts, so the cache holds what that many arrivals leave in it; then
   [duration] measured seconds of the open-loop schedule follow. *)
let window (ctx : ctx) inputs ~traced ~duration =
  let count = int_of_float (rate *. duration) in
  let due = arrivals ~seed:ctx.seed ~count ~duration in
  let server =
    Server.create ~cache_capacity
      { Server.default_config with service = service_config ctx; queue_capacity = 4096 }
  in
  let total = warmup_requests + count in
  let ids = Array.make total (-1) in
  let start = now () in
  let submit i =
    let q = inputs.pool.(inputs.requests.(i)) in
    match span traced "service.submit" (fun () -> Server.submit server q) with
    | Server.Accepted id -> ids.(i) <- id
    | Server.Shed _ -> ()
  in
  for i = 0 to warmup_requests - 1 do
    submit i
  done;
  let rec settle () =
    let s = Server.stats server in
    if s.served + s.failed < s.accepted then begin
      pause 0.001;
      settle ()
    end
  in
  settle ();
  let lag = Array.make count 0.0 in
  let fingerprint_us = ref [] in
  let t0 = now () +. 0.01 in
  let (), gc =
    with_gc (fun () ->
        for j = 0 to count - 1 do
          let at = t0 +. due.(j) in
          span traced "loadgen.wait" (fun () ->
              let rec wait () =
                let slack = at -. now () in
                if slack > 0.0 then begin
                  pause slack;
                  wait ()
                end
              in
              wait ());
          lag.(j) <- now () -. at;
          submit (warmup_requests + j);
          if traced then begin
            let q = inputs.pool.(inputs.requests.(warmup_requests + j)) in
            let _, dt =
              timed (fun () -> span traced "service.fingerprint" (fun () -> Fingerprint.compute q))
            in
            fingerprint_us := (dt *. 1e6) :: !fingerprint_us
          end
        done;
        ignore (Server.drain server))
  in
  let wall = now () -. t0 in
  let responses =
    match Server.drain server with
    | Server.Drained rs -> Array.of_list rs
    | Server.Drain_timeout { responses; _ } -> Array.of_list responses
  in
  let by_id = Hashtbl.create total in
  Array.iter (fun (r : Server.response) -> Hashtbl.replace by_id r.id r) responses;
  let served =
    List.init total (fun i ->
        (* Warm-up requests have no due time; they are checked, not measured. *)
        let due, lag =
          if i < warmup_requests then (neg_infinity, 0.0)
          else (due.(i - warmup_requests), lag.(i - warmup_requests))
        in
        match Hashtbl.find_opt by_id ids.(i) with
        | Some (r : Server.response) when ids.(i) >= 0 ->
          let lat = float_of_int r.latency_ns /. 1e9 and wait = float_of_int r.queue_wait_ns /. 1e9 in
          {
            idx = i;
            due;
            latency = lag +. lat;
            service = lat -. wait;
            queue_wait = wait;
            direct = (match r.outcome with Server.Served d -> Some d | _ -> None);
          }
        | _ -> { idx = i; due; latency = infinity; service = 0.0; queue_wait = 0.0; direct = None })
  in
  { served; lag = Array.to_list lag; fingerprint_us = !fingerprint_us; stats = Server.stats server; wall; window_wall = now () -. start; gc }

(* The most measured requests waiting for the worker at once, from each
   request's submission and pickup times.  The server's own maximum would
   count the warm-up burst. *)
let max_queue_depth ss =
  let events =
    List.concat_map
      (fun s ->
        let submitted = s.due +. (s.latency -. s.service -. s.queue_wait) in
        [ (submitted, 1); (submitted +. s.queue_wait, -1) ])
      ss
  in
  let sorted = List.sort (fun (a, x) (b, y) -> if a = b then compare x y else Float.compare a b) events in
  snd (List.fold_left (fun (d, m) (_, x) -> (d + x, max m (d + x))) (0, 0) sorted)

let run (ctx : ctx) =
  Ljqo_stats.Parallel.set_jobs 1;
  (* Untraced: [untraced_windows] windows over one schedule.  Traced: an
     untraced and a traced window over the same schedule. *)
  let n_windows = if ctx.traced then 2 else untraced_windows in
  let duration = ctx.seconds /. float_of_int n_windows in
  let durations = List.init n_windows (fun _ -> duration) in
  let max_requests = max cell_requests (warmup_requests + int_of_float (rate *. duration)) in
  let (inputs, gen_s), setup_s = repeated_setup 9 (fun () -> setup ctx ~max_requests) in
  (* Check pass: the request sequence replayed through [Service.serve_direct]
     on this domain.  One worker serving a FIFO queue with nothing shed
     evolves the cache exactly like this replay, so every window response
     must match it. *)
  let cell_snap = ref None and cell_stats = ref None in
  let replay, _ =
    with_counters (fun () ->
        let svc = Service.create ~cache_capacity (service_config ctx) in
        Array.mapi
          (fun i p ->
            let q = inputs.pool.(p) in
            let d = Service.serve_direct svc q in
            (match
               plan_ok ~query:q ~budget:inputs.budgets.(p) ~allowance:(Query.n_relations q)
                 ~plan:d.d_plan ~cost:d.d_cost ~ticks_used:d.d_ticks_used
             with
            | Ok () -> record_op ~ok:true ""
            | Error e -> record_op ~ok:false (Printf.sprintf "replay request %d: %s" i e));
            if i = cell_requests - 1 then begin
              cell_snap := Some (Obs.snapshot ());
              cell_stats := Some (Plan_cache.stats (Service.cache svc))
            end;
            d)
          inputs.requests)
  in
  let snap = Option.get !cell_snap and cstats = Option.get !cell_stats in
  let expected = Array.map output_of replay in
  let cells_range = Array.sub replay 0 cell_requests in
  let cold_ticks = Array.fold_left (fun a (d : Service.direct) -> a + d.d_ticks_used) 0 cells_range in
  let cost_vs_lb_cells =
    geomean
      (Array.to_list
         (Array.mapi
            (fun i (d : Service.direct) -> d.d_cost /. inputs.lower_bounds.(inputs.requests.(i)))
            cells_range))
  in
  let check w =
    List.iter
      (fun s ->
        match s.direct with
        | Some d ->
          record_op ~ok:(output_of d = expected.(s.idx))
            (Printf.sprintf "request %d: served output differs from the replay" s.idx)
        | None -> record_op ~ok:false (Printf.sprintf "request %d: shed or failed" s.idx))
      w.served
  in
  let windows =
    List.mapi
      (fun i duration ->
        let traced = ctx.traced && i = 1 in
        if traced then (Obs.reset (); set_tracing true);
        let w =
          Fun.protect ~finally:(fun () -> if traced then set_tracing false) (fun () ->
              window ctx inputs ~traced ~duration)
        in
        check w;
        w)
      durations
  in
  let measured w = List.filter (fun s -> s.due >= 0.0) w.served in
  let cold_of ss = List.filter (fun s -> match s.direct with Some d -> d.d_ticks_used > 0 | None -> false) ss in
  let cold w = cold_of (measured w) in
  let hits w = List.filter (fun s -> match s.direct with Some d -> d.d_source = Service.Exact_hit | None -> false) (measured w) in
  let ticks_of ss = List.fold_left (fun a s -> match s.direct with Some d -> a + d.d_ticks_used | None -> a) 0 ss in
  let w0 = List.hd windows in
  (* The windows replay one schedule on fresh servers, so request [i] does
     the same work in each.  Latency and service time are taken per request
     as the fastest over the windows, which filters out a window disturbed
     by the rest of the machine; goodput is the best window's. *)
  let untraced = if ctx.traced then [ w0 ] else windows in
  let fastest =
    match List.map (fun w -> Array.of_list (measured w)) untraced with
    | [] -> []
    | first :: rest ->
      Array.to_list
        (Array.mapi
           (fun i s ->
             List.fold_left
               (fun acc w ->
                 let o = w.(i) in
                 { acc with latency = Float.min acc.latency o.latency; service = Float.min acc.service o.service })
               s rest)
           first)
  in
  let goodput w =
    let m = measured w in
    let elapsed = List.fold_left (fun a s -> Float.max a (s.due +. s.latency)) 0.0 m in
    let good = List.filter (fun s -> s.direct <> None && s.latency <= latency_limit) m in
    float_of_int (List.length good) /. elapsed
  in
  let latencies = List.map (fun s -> s.latency) fastest in
  let c = cold_of fastest in
  let e2e =
    [
      ("setup_s", setup_s);
      ("ns_per_tick", ns (sum (List.map (fun s -> s.service) c)) /. float_of_int (ticks_of c));
      ( "ns_per_tick_p90",
        quantile (List.map (fun s -> ns s.service /. float_of_int (max 1 (ticks_of [ s ]))) c) 0.9 );
      ("serve_ms_p50", ms (median latencies));
      ("serve_ms_p99", ms (quantile latencies 0.99));
      ("goodput_rps", List.fold_left (fun a w -> Float.max a (goodput w)) 0.0 untraced);
    ]
  in
  let per_layer =
    if not ctx.traced then []
    else begin
      let wt = List.nth windows 1 in
      let spans = Obs.spans () and ts = Obs.snapshot () in
      let service_ms ss q = ms (quantile (List.map (fun s -> s.service) ss) q) in
      let all_service w = sum (List.map (fun s -> s.service) (measured w)) in
      let eval_ns, steps =
        List.fold_left
          (fun (t, n) s ->
            match s.direct with
            | Some d ->
              let q = inputs.pool.(inputs.requests.(s.idx)) in
              let _, dt = timed (fun () -> Plan_cost.eval model q d.d_plan) in
              (t +. ns dt, n + Query.n_relations q - 1)
            | None -> (t, n))
          (0.0, 0) (measured wt)
      in
      let lookup = hist ts "cache.lookup_ns" in
      search_metrics ~traced:ts ~check:snap ~per:1.0
      @ [
          ("core.minor_words_per_tick", wt.gc.minor_words /. float_of_int (max 1 (ticks_of (measured wt))));
          ("core.cost_vs_lb_geomean", cost_vs_lb_cells);
          ("core.ticks", float_of_int cold_ticks);
          ("cost.eval_ns_per_step", eval_ns /. float_of_int (max 1 steps));
          ("service.fingerprint_us_p50", median wt.fingerprint_us);
          ("service.cache_lookup_us_p50", float_of_int (Ljqo_obs.Hist.quantile lookup 0.5) /. 1e3);
          ("service.service_ms_p50.hit", service_ms (hits wt) 0.5);
          ("service.service_ms_p99.cold", service_ms (cold wt) 0.99);
          ("service.cache_hit_frac", float_of_int cstats.hits /. float_of_int cell_requests);
          ("service.cache_evictions", float_of_int cstats.evictions);
          ("service.queue_wait_ms_p50", ms (median (List.map (fun s -> s.queue_wait) (measured wt))));
          ("service.queue_wait_ms_p99", ms (quantile (List.map (fun s -> s.queue_wait) (measured wt)) 0.99));
          ("service.cold_ticks", float_of_int cold_ticks);
          ("service.max_queue_depth", float_of_int (max_queue_depth (measured wt)));
          ( "service.shed",
            float_of_int (wt.stats.shed_queue_full + wt.stats.shed_tenant_limit + wt.stats.shed_draining) );
          ("service.worker_busy_frac", all_service wt /. wt.wall);
          ("querygen.generate_ms", ms gen_s);
          ("loadgen.lag_ms_p99", ms (quantile w0.lag 0.99));
          ("obs.overhead_frac", (all_service wt -. all_service w0) /. all_service w0);
        ]
      @ accounting ~spans ~traced_wall:wt.window_wall
      @ gc_metrics ~ops:(List.length (measured wt)) wt.gc
    end
  in
  let cells =
    [
      ("cache_hits", string_of_int cstats.hits);
      ("cache_evictions", string_of_int cstats.evictions);
      ("ticks", string_of_int cold_ticks);
      ("neighbors_evaluated", string_of_int (counter snap "search.neighbors_evaluated"));
      ("recost_steps", string_of_int (counter snap "recost_steps"));
      ("cost_vs_lb_geomean", float_cell cost_vs_lb_cells);
      ("outputs", digest_of (Array.to_list (Array.sub expected 0 cell_requests)));
    ]
  in
  { e2e; per_layer; cells }

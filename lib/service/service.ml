open Ljqo_core
module Obs = Ljqo_obs.Obs
module Parallel = Ljqo_stats.Parallel
module Query = Ljqo_catalog.Query

type budget =
  | Time_limit of { t_factor : float; kappa : int option }
  | Fixed_ticks of int

type config = {
  method_ : Methods.t;
  methods_config : Methods.config;
  model : Ljqo_cost.Cost_model.t;
  budget : budget;
  seed : int;
}

let default_config =
  {
    method_ = Methods.IAI;
    methods_config = Methods.default_config;
    model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S);
    budget = Time_limit { t_factor = 9.0; kappa = None };
    seed = 42;
  }

type source = Exact_hit | Warm_start | Cold | Deduped

type served = {
  index : int;
  fingerprint : Fingerprint.t;
  plan : Plan.t;
  cost : float;
  ticks_used : int;
  source : source;
}

type t = {
  config : config;
  cache : Plan_cache.t;
}

let check_budget = function
  | Fixed_ticks k when k < 1 ->
    invalid_arg "Service.create: Fixed_ticks budget must be positive"
  | Time_limit { t_factor; _ } when not (t_factor > 0.0) ->
    invalid_arg "Service.create: Time_limit t_factor must be positive"
  | Time_limit { kappa = Some k; _ } when k < 1 ->
    invalid_arg "Service.create: Time_limit kappa must be positive"
  | _ -> ()

let create ?cache ?(cache_capacity = 1024) config =
  check_budget config.budget;
  let cache =
    match cache with
    | Some c -> c
    | None -> Plan_cache.create ~capacity:cache_capacity ()
  in
  { config; cache }

let cache t = t.cache

let source_name = function
  | Exact_hit -> "exact-hit"
  | Warm_start -> "warm-start"
  | Cold -> "cold"
  | Deduped -> "deduped"

let ticks_for t query =
  match t.config.budget with
  | Fixed_ticks k -> k
  | Time_limit { t_factor; kappa } ->
    Optimizer.time_limit_ticks ?ticks_per_unit:kappa ~t_factor ~query ()

(* Per-query seed from the service seed and the query's exact key (FNV-1a),
   never from the batch position: resubmitting the same query — alone, in a
   different batch, after a cache flush — replays the same search. *)
let seed_for t exact =
  let h = ref (0x0bf29ce484222325 lxor t.config.seed) in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    exact;
  !h land max_int

(* Map a cached canonical plan onto [query] through its fingerprint; [None]
   when the sizes disagree or the mapped plan is invalid on this join graph
   (the clean fallback the warm-start path needs). *)
let instantiate query fp (e : Plan_cache.entry) =
  if Array.length e.cplan <> Fingerprint.n_relations fp then None
  else
    let plan = Fingerprint.of_canonical fp e.cplan in
    if Plan.is_valid query plan then Some plan else None

let serve_batch ?jobs t queries =
  let n = Array.length queries in
  if n = 0 then [||]
  else
    Obs.span "serve_batch" ~fields:[ ("batch", Obs.I n) ] @@ fun () ->
    let fps =
      Obs.span "fingerprint" (fun () ->
          Parallel.map_array ?jobs Fingerprint.compute queries)
    in
    (* In-flight dedup: the first request with a given exact key is the
       representative; its twins share the result. *)
    let rep_of_key = Hashtbl.create (2 * n) in
    let rep = Array.make n (-1) in
    for i = 0 to n - 1 do
      let key = Fingerprint.exact_key fps.(i) in
      match Hashtbl.find_opt rep_of_key key with
      | Some j -> rep.(i) <- j
      | None ->
        Hashtbl.add rep_of_key key i;
        rep.(i) <- i
    done;
    (* Classify every representative against the cache as of batch start.
       Lookups are read-only (no recency updates), so this classification —
       and the counters it bumps — is independent of how the optimizations
       below are scheduled. *)
    let cls = Array.make n `Dup in
    Obs.span "classify" (fun () ->
        for i = 0 to n - 1 do
          if rep.(i) = i then begin
            let q = queries.(i) and fp = fps.(i) in
            if not (Query.is_connected q) then cls.(i) <- `Work None
            else
              cls.(i) <-
                (match
                   Obs.time Obs.Cache_lookup_ns (fun () ->
                       Plan_cache.lookup t.cache
                         ~exact:(Fingerprint.exact_key fp)
                         ~coarse:(Fingerprint.coarse_key fp)
                         ~validate:(fun e -> instantiate q fp e <> None))
                 with
                | `Exact e -> `Hit (Option.get (instantiate q fp e))
                | `Coarse e -> `Work (instantiate q fp e)
                | `Miss -> `Work None)
          end
        done);
    (* Optimize what must be optimized, in parallel.  Each item is a pure
       function of (query, warm start, derived seed); the cache is neither
       read nor written inside the workers. *)
    let work =
      Array.of_list
        (List.filter
           (fun i -> match cls.(i) with `Work _ -> true | _ -> false)
           (List.init n Fun.id))
    in
    let optimize i =
      let q = queries.(i) and fp = fps.(i) in
      let start = match cls.(i) with `Work w -> w | _ -> assert false in
      Obs.span "request" ~fields:[ ("index", Obs.I i) ] (fun () ->
          Obs.time Obs.Service_latency_ns (fun () ->
              Optimizer.optimize ~config:t.config.methods_config ?start
                ~method_:t.config.method_ ~model:t.config.model
                ~ticks:(ticks_for t q)
                ~seed:(seed_for t (Fingerprint.exact_key fp))
                q))
    in
    let work_results =
      Obs.span "optimize" (fun () -> Parallel.map_array ?jobs optimize work)
    in
    let results : Optimizer.result option array = Array.make n None in
    Array.iteri (fun k i -> results.(i) <- Some work_results.(k)) work;
    (* Single commit pass in request order: touches and admissions evolve
       the cache deterministically; representatives always precede their
       twins (the representative is the first occurrence).  Served costs are
       full recosts of the served plan on the query at hand, so a cached
       plan and a freshly optimized one are priced identically. *)
    let model = t.config.model in
    let served = Array.make n None in
    Obs.span "commit" (fun () ->
        for i = 0 to n - 1 do
          let q = queries.(i) and fp = fps.(i) in
          let exact = Fingerprint.exact_key fp in
          let mk plan ticks_used source =
            Obs.hist_record Obs.Request_ticks ticks_used;
            Some
              {
                index = i;
                fingerprint = fp;
                plan;
                cost = Ljqo_cost.Plan_cost.total model q plan;
                ticks_used;
                source;
              }
          in
          served.(i) <-
            (match cls.(i) with
            | `Hit plan ->
              Obs.time Obs.Service_latency_ns @@ fun () ->
              Plan_cache.touch t.cache exact;
              mk plan 0 Exact_hit
            | `Work warm ->
              let r = Option.get results.(i) in
              (* A warm start "wins" when no cold start beat the cached
                 plan it seeded: the served cost is no better than the warm
                 plan's own cost on this query.  Pure observation — costs on
                 both sides are full recosts of already-computed plans. *)
              (match warm with
              | Some w
                when Ljqo_cost.Plan_cost.total model q r.plan
                     >= Ljqo_cost.Plan_cost.total model q w ->
                Obs.bump Obs.Warm_start_wins
              | _ -> ());
              if Query.is_connected q then
                Plan_cache.put t.cache ~exact ~coarse:(Fingerprint.coarse_key fp)
                  {
                    Plan_cache.cplan = Fingerprint.to_canonical fp r.plan;
                    cost = Ljqo_cost.Plan_cost.total model q r.plan;
                    ticks = r.ticks_used;
                  };
              mk r.plan r.ticks_used (if warm = None then Cold else Warm_start)
            | `Dup -> (
              Obs.time Obs.Service_latency_ns @@ fun () ->
              Obs.bump Obs.Service_dedups;
              let j = rep.(i) in
              let rep_served = Option.get served.(j) in
              (* The twin's relations may be numbered differently: route the
                 representative's plan through the canonical form. *)
              let cplan = Fingerprint.to_canonical fps.(j) rep_served.plan in
              let plan = Fingerprint.of_canonical fp cplan in
              if Query.is_connected q && not (Plan.is_valid q plan) then
                (* A canonical-order tie mapped onto an invalid plan (possible
                   only across automorphism-like twins): optimize this one
                   cold, still deterministically. *)
                let r =
                  Optimizer.optimize ~config:t.config.methods_config
                    ~method_:t.config.method_ ~model ~ticks:(ticks_for t q)
                    ~seed:(seed_for t exact) q
                in
                mk r.plan r.ticks_used Cold
              else mk plan 0 Deduped))
        done);
    Array.map Option.get served

type direct = {
  d_fingerprint : Fingerprint.t;
  d_plan : Plan.t;
  d_cost : float;
  d_ticks_used : int;
  d_source : source;
  d_timed_out : bool;
}

(* The server's per-request path.  Unlike [serve_batch] this commits to the
   cache immediately — there is no batch barrier to defer to — so, to keep
   every outcome a pure function of (query bytes, service seed) whatever the
   interleaving, it deliberately narrows the policy:

   - no warm starts: a coarse hit optimizes cold (a warm start would make
     the result depend on *which* similar query happened to commit first);
   - an exact hit serves the cached plan, which — because cached entries are
     only ever produced by completed cold runs keyed by the same exact key,
     and admission replaces only on strictly cheaper cost with deterministic
     recosting — is the same plan the cold run for those query bytes yields;
   - a deadline-salvaged incumbent is served but never committed, so partial
     results cannot leak into later requests' exact hits.

   The one caveat, shared with any exact-key scheme: two byte-different
   queries with equal exact keys (relabeled automorphic twins) may serve
   each other's mapped plans, whose canonical forms can differ when the run
   is cut by a tie in canonical order.  The server's tests use byte-identical
   duplicates, where the guarantee is unconditional. *)
let serve_direct ?deadline t query =
  let fp = Fingerprint.compute query in
  let exact = Fingerprint.exact_key fp in
  let model = t.config.model in
  let finish plan ticks_used source timed_out =
    Obs.hist_record Obs.Request_ticks ticks_used;
    {
      d_fingerprint = fp;
      d_plan = plan;
      d_cost = Ljqo_cost.Plan_cost.total model query plan;
      d_ticks_used = ticks_used;
      d_source = source;
      d_timed_out = timed_out;
    }
  in
  let optimize_cold () =
    let r =
      Optimizer.optimize ~config:t.config.methods_config ?deadline
        ~method_:t.config.method_ ~model ~ticks:(ticks_for t query)
        ~seed:(seed_for t exact) query
    in
    if r.timed_out then Obs.bump Obs.Service_timeouts;
    if Query.is_connected query && not r.timed_out then
      Plan_cache.put t.cache ~exact ~coarse:(Fingerprint.coarse_key fp)
        {
          Plan_cache.cplan = Fingerprint.to_canonical fp r.plan;
          cost = Ljqo_cost.Plan_cost.total model query r.plan;
          ticks = r.ticks_used;
        };
    finish r.plan r.ticks_used Cold r.timed_out
  in
  if not (Query.is_connected query) then optimize_cold ()
  else
    match
      Obs.time Obs.Cache_lookup_ns (fun () ->
          Plan_cache.lookup t.cache ~exact
            ~coarse:(Fingerprint.coarse_key fp)
            ~validate:(fun e -> instantiate query fp e <> None))
    with
    | `Exact e ->
      Plan_cache.touch t.cache exact;
      finish (Option.get (instantiate query fp e)) 0 Exact_hit false
    | `Coarse _ | `Miss -> optimize_cold ()

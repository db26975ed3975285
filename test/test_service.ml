(* The serving layer: fingerprint invariance, the plan cache's LRU and
   admission policies, and the service's hit/warm-start/determinism
   contracts (the acceptance criteria of the subsystem). *)

open Ljqo_core
open Ljqo_catalog
module Service = Ljqo_service.Service
module Fingerprint = Ljqo_service.Fingerprint
module Plan_cache = Ljqo_service.Plan_cache
module Obs = Ljqo_obs.Obs

let mem = Helpers.memory_model

(* Relabel a query's relations by [perm] ([perm.(old_id)] is the new id),
   renumbering relations and rewriting edges — the transformation the
   fingerprint must be blind to. *)
let permute_query perm q =
  let n = Query.n_relations q in
  let inv = Array.make n 0 in
  Array.iteri (fun old_id new_id -> inv.(new_id) <- old_id) perm;
  let relations =
    Array.init n (fun new_id ->
        let r = Query.relation q inv.(new_id) in
        Relation.make ~id:new_id ~name:r.name
          ~base_cardinality:r.base_cardinality
          ~selections:r.selection_selectivities
          ~distinct_fraction:r.distinct_fraction ())
  in
  let edges =
    Join_graph.fold_edges
      (fun e acc ->
        { Join_graph.u = perm.(e.u); v = perm.(e.v); selectivity = e.selectivity }
        :: acc)
      (Query.graph q) []
  in
  Query.make ~relations ~graph:(Join_graph.make ~n edges)

let random_perm rng n =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Ljqo_stats.Rng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  perm

(* --- fingerprint ------------------------------------------------------- *)

let prop_relabel_invariant =
  Helpers.qcheck_case ~count:60 ~name:"fingerprint invariant under relabeling"
    (fun (qseed, pseed) ->
      let n_joins = 3 + (qseed mod 10) in
      let q = Helpers.random_query ~n_joins (100 + qseed) in
      let rng = Ljqo_stats.Rng.create (200 + pseed) in
      let perm = random_perm rng (Query.n_relations q) in
      let fp = Fingerprint.compute q in
      let fp' = Fingerprint.compute (permute_query perm q) in
      Fingerprint.exact_key fp = Fingerprint.exact_key fp'
      && Fingerprint.coarse_key fp = Fingerprint.coarse_key fp')
    QCheck.(pair small_int small_int)

let prop_plan_maps_across_relabeling =
  (* A plan mapped through canonical form onto a relabeled twin is a valid
     plan of the same cost: the property warm starts and exact hits rely
     on.  (Signature ties could in principle scramble the mapping — the
     service re-validates for that reason — but the benchmark generator's
     continuous statistics never tie in practice.) *)
  Helpers.qcheck_case ~count:60 ~name:"plan maps across relabeling"
    (fun (qseed, pseed) ->
      let n_joins = 3 + (qseed mod 10) in
      let q = Helpers.random_query ~n_joins (300 + qseed) in
      let rng = Ljqo_stats.Rng.create (400 + pseed) in
      let perm = random_perm rng (Query.n_relations q) in
      let q' = permute_query perm q in
      let fp = Fingerprint.compute q and fp' = Fingerprint.compute q' in
      let plan = Helpers.valid_random_plan q (500 + pseed) in
      let plan' = Fingerprint.of_canonical fp' (Fingerprint.to_canonical fp plan) in
      Plan.is_valid q' plan'
      && Helpers.approx ~rel:1e-9
           (Ljqo_cost.Plan_cost.total mem q plan)
           (Ljqo_cost.Plan_cost.total mem q' plan'))
    QCheck.(pair small_int small_int)

(* Fingerprinting never depended on the bitset width, but the cap's removal
   makes wide graphs reachable: relabel invariance and plan mapping must
   hold past 126 relations too. *)
let test_wide_fingerprint () =
  let q = Helpers.random_query ~n_joins:150 77 in
  let n = Query.n_relations q in
  Alcotest.(check bool) "wide query" true (n > Ljqo_catalog.Bitset.inline_size);
  let rng = Ljqo_stats.Rng.create 78 in
  let perm = random_perm rng n in
  let q' = permute_query perm q in
  let fp = Fingerprint.compute q and fp' = Fingerprint.compute q' in
  Alcotest.(check bool) "exact keys equal" true
    (Fingerprint.exact_key fp = Fingerprint.exact_key fp');
  Alcotest.(check bool) "coarse keys equal" true
    (Fingerprint.coarse_key fp = Fingerprint.coarse_key fp');
  let plan = Helpers.valid_random_plan q 79 in
  let plan' = Fingerprint.of_canonical fp' (Fingerprint.to_canonical fp plan) in
  Alcotest.(check bool) "mapped plan valid" true (Plan.is_valid q' plan');
  Helpers.check_approx "mapped plan cost preserved"
    (Ljqo_cost.Plan_cost.total mem q plan)
    (Ljqo_cost.Plan_cost.total mem q' plan')

let test_collision_smoke () =
  (* Distinct benchmark queries must get distinct exact keys. *)
  let keys = Hashtbl.create 256 in
  let total = ref 0 in
  List.iter
    (fun n_joins ->
      for seed = 0 to 39 do
        let q = Helpers.random_query ~n_joins (1000 + seed) in
        let key = Fingerprint.exact_key (Fingerprint.compute q) in
        incr total;
        if Hashtbl.mem keys key then
          Alcotest.failf "exact-key collision at n_joins=%d seed=%d" n_joins seed;
        Hashtbl.add keys key ()
      done)
    [ 4; 7; 10; 13; 16 ];
  Alcotest.(check int) "all keys distinct" !total (Hashtbl.length keys)

let test_canonical_roundtrip () =
  let q = Helpers.random_query ~n_joins:9 7 in
  let fp = Fingerprint.compute q in
  let plan = Helpers.valid_random_plan q 8 in
  Alcotest.(check bool) "of_canonical (to_canonical p) = p" true
    (Fingerprint.of_canonical fp (Fingerprint.to_canonical fp plan) = plan);
  (match Fingerprint.to_canonical fp [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch must raise")

(* The kernel against its list-based oracle ([Fingerprint_reference]):
   exact key, coarse key and canonical order must agree bit for bit, since
   the service seeds every cold optimization from the exact key. *)

let matches_reference q =
  let fp = Fingerprint.compute q in
  let exact, coarse, canon = Fingerprint_reference.compute q in
  Fingerprint.exact_key fp = exact
  && Fingerprint.coarse_key fp = coarse
  && Fingerprint.canonical_order fp = canon

let spec_query spec n_joins seed =
  Ljqo_querygen.Benchmark.generate_query
    (Ljqo_querygen.Benchmark.by_index spec)
    ~n_joins ~rng:(Ljqo_stats.Rng.create seed)

(* The same query with its first edge's selectivity set to 0 (a legal,
   always-false predicate): the bucket sentinel path. *)
let with_zero_edge q =
  let first = ref true in
  let edges =
    Join_graph.fold_edges
      (fun e acc ->
        let e =
          if !first then begin
            first := false;
            { e with Join_graph.selectivity = 0.0 }
          end
          else e
        in
        e :: acc)
      (Query.graph q) []
  in
  Query.make
    ~relations:(Array.init (Query.n_relations q) (Query.relation q))
    ~graph:(Join_graph.make ~n:(Query.n_relations q) edges)

let single_relation () =
  Query.make
    ~relations:[| Helpers.rel ~id:0 ~card:100 ~distinct:0.5 () |]
    ~graph:(Join_graph.make ~n:1 [])

let prop_fingerprint_matches_reference =
  Helpers.qcheck_case ~count:150 ~name:"fingerprint matches the reference"
    (fun (spec, n_joins, seed, variant) ->
      let q = spec_query spec n_joins seed in
      let q =
        match variant mod 3 with
        | 0 -> q
        | 1 ->
          permute_query
            (random_perm (Ljqo_stats.Rng.create seed) (Query.n_relations q))
            q
        | _ -> with_zero_edge q
      in
      matches_reference q)
    QCheck.(quad (int_bound 9) (int_range 1 200) (int_bound 100_000) small_nat)

let test_fingerprint_reference_edges () =
  (* The corners a random draw may miss: the 1-relation query, the smallest
     and the widest queries of every spec, dense graphs past 126 relations,
     relabeled twins and zero-selectivity edges. *)
  let check label q =
    if not (matches_reference q) then
      Alcotest.failf "%s: fingerprint differs from the reference" label
  in
  check "single relation" (single_relation ());
  for spec = 0 to 9 do
    List.iter
      (fun n_joins ->
        let q = spec_query spec n_joins (31 * (spec + 1)) in
        let label = Printf.sprintf "spec %d n_joins %d" spec n_joins in
        check label q;
        check (label ^ " relabeled")
          (permute_query
             (random_perm (Ljqo_stats.Rng.create spec) (Query.n_relations q))
             q);
        check (label ^ " zero edge") (with_zero_edge q))
      [ 1; 2; 126; 200 ]
  done

(* Keys as the list-based implementation printed them: pins the kernel and
   the oracle both, so the two cannot drift together. *)
let test_fingerprint_golden () =
  let golden =
    [
      ("default 5", spec_query 0 5 101, "6364e4343220f62d", "43164f476a340754",
        Some [| 1; 0; 3; 2; 5; 4 |]);
      ("graph-star 20", spec_query 8 20 102, "9beae664c0356a94",
        "fc5af2e2f9bc96fd", None);
      ("graph-dense 40", spec_query 7 40 103, "33b53ae9f27ee041",
        "e019070ae4a477d4", None);
      ("graph-chain 150", spec_query 9 150 104, "138e2ad14a9ef643",
        "1f7f8836525c7fe3", None);
      ("single relation", single_relation (), "5d39e056f3ac219a",
        "761946b2f09d5010", Some [| 0 |]);
      ("zero selectivity", with_zero_edge (Helpers.chain3 ()),
        "d60ddfea7d42ad0f", "ff053170cc8776a9", Some [| 0; 2; 1 |]);
    ]
  in
  List.iter
    (fun (label, q, exact, coarse, canon) ->
      let fp = Fingerprint.compute q in
      let r_exact, r_coarse, r_canon = Fingerprint_reference.compute q in
      Alcotest.(check string) (label ^ " exact") exact (Fingerprint.exact_key fp);
      Alcotest.(check string) (label ^ " coarse") coarse
        (Fingerprint.coarse_key fp);
      Alcotest.(check string) (label ^ " reference exact") exact r_exact;
      Alcotest.(check string) (label ^ " reference coarse") coarse r_coarse;
      Option.iter
        (fun canon ->
          Alcotest.(check (array int)) (label ^ " canonical order") canon
            (Fingerprint.canonical_order fp);
          Alcotest.(check (array int)) (label ^ " reference order") canon r_canon)
        canon)
    golden

(* --- plan cache -------------------------------------------------------- *)

let entry ?(cost = 1.0) v = { Plan_cache.cplan = [| v |]; cost; ticks = 0 }

let test_cache_lru_eviction () =
  (* One shard of capacity 3: filling and touching must evict the least
     recently used key, not an arbitrary one. *)
  let c = Plan_cache.create ~shards:1 ~capacity:3 () in
  Plan_cache.put c ~exact:"a" ~coarse:"ca" (entry 1);
  Plan_cache.put c ~exact:"b" ~coarse:"cb" (entry 2);
  Plan_cache.put c ~exact:"c" ~coarse:"cc" (entry 3);
  Plan_cache.touch c "a";
  (* b is now LRU *)
  Plan_cache.put c ~exact:"d" ~coarse:"cd" (entry 4);
  Alcotest.(check bool) "a survives" true (Plan_cache.find_exact c "a" <> None);
  Alcotest.(check bool) "b evicted" true (Plan_cache.find_exact c "b" = None);
  Alcotest.(check bool) "c survives" true (Plan_cache.find_exact c "c" <> None);
  Alcotest.(check int) "one eviction counted" 1 (Plan_cache.stats c).evictions;
  Alcotest.(check int) "length at capacity" 3 (Plan_cache.length c);
  (* b's coarse mapping is gone with it *)
  Alcotest.(check bool) "coarse index pruned" true
    (Plan_cache.find_coarse c "cb" = None)

let test_cache_admission () =
  let c = Plan_cache.create ~shards:1 ~capacity:4 () in
  Plan_cache.put c ~exact:"a" ~coarse:"ca" (entry ~cost:5.0 1);
  (* a worse plan for the same key must not replace the cached one *)
  Plan_cache.put c ~exact:"a" ~coarse:"ca" (entry ~cost:9.0 2);
  (match Plan_cache.find_exact c "a" with
  | Some e -> Alcotest.(check (float 0.0)) "kept cheaper" 5.0 e.cost
  | None -> Alcotest.fail "entry lost");
  (* a strictly cheaper one must *)
  Plan_cache.put c ~exact:"a" ~coarse:"ca" (entry ~cost:2.0 3);
  (match Plan_cache.find_exact c "a" with
  | Some e -> Alcotest.(check (float 0.0)) "upgraded" 2.0 e.cost
  | None -> Alcotest.fail "entry lost");
  Alcotest.(check int) "improvements count as insertions" 2
    (Plan_cache.stats c).insertions

let test_cache_lookup_counters () =
  let c = Plan_cache.create ~shards:2 ~capacity:8 () in
  let always _ = true and never _ = false in
  Alcotest.(check bool) "miss on empty" true
    (Plan_cache.lookup c ~exact:"x" ~coarse:"cx" ~validate:always = `Miss);
  Plan_cache.put c ~exact:"x" ~coarse:"cx" (entry 1);
  Alcotest.(check bool) "exact hit" true
    (Plan_cache.lookup c ~exact:"x" ~coarse:"cx" ~validate:always = `Exact (entry 1));
  Alcotest.(check bool) "coarse hit through the index" true
    (Plan_cache.lookup c ~exact:"y" ~coarse:"cx" ~validate:always
    = `Coarse (entry 1));
  Alcotest.(check bool) "failed validation degrades to miss" true
    (Plan_cache.lookup c ~exact:"x" ~coarse:"cx" ~validate:never = `Miss);
  let st = Plan_cache.stats c in
  Alcotest.(check (list int)) "counters: hit, coarse, miss" [ 1; 1; 2 ]
    [ st.hits; st.coarse_hits; st.misses ]

let test_cache_rejects_bad_capacity () =
  match Plan_cache.create ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must raise"

let prop_cache_concurrent_storm =
  (* Parallel put/lookup storms (the server's access pattern): the cache
     never exceeds capacity, never loses a strictly-cheaper replacement
     (the keyspace fits each shard's share, so no eviction: the surviving
     cost per key is the global minimum put anywhere), and the coarse index
     never dangles — a coarse hit is always the live entry of its exact
     key. *)
  Helpers.qcheck_case ~count:10 ~name:"cache safe under concurrent storms"
    (fun seed ->
      let n_keys = 8 in
      let key i = Printf.sprintf "k%d" i and coarse i = Printf.sprintf "c%d" i in
      (* per-shard cap is ceil(capacity/shards): 16/2 holds all 8 keys even
         if every key hashes to one shard *)
      let c = Plan_cache.create ~shards:2 ~capacity:16 () in
      let best = Array.make n_keys infinity in
      let ops_per_domain = 200 in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                let rng = Ljqo_stats.Rng.create ((seed * 4) + d) in
                for _ = 1 to ops_per_domain do
                  let i = Ljqo_stats.Rng.int rng n_keys in
                  if Ljqo_stats.Rng.bool rng then
                    let cost = 1.0 +. Ljqo_stats.Rng.float rng 100.0 in
                    Plan_cache.put c ~exact:(key i) ~coarse:(coarse i)
                      { Plan_cache.cplan = [| i |]; cost; ticks = 0 }
                  else
                    ignore
                      (Plan_cache.lookup c ~exact:(key i) ~coarse:(coarse i)
                         ~validate:(fun _ -> true))
                done))
      in
      List.iter Domain.join domains;
      (* recompute each key's cheapest put from the same seeded streams *)
      List.iteri
        (fun d () ->
          let rng = Ljqo_stats.Rng.create ((seed * 4) + d) in
          for _ = 1 to ops_per_domain do
            let i = Ljqo_stats.Rng.int rng n_keys in
            if Ljqo_stats.Rng.bool rng then begin
              let cost = 1.0 +. Ljqo_stats.Rng.float rng 100.0 in
              if cost < best.(i) then best.(i) <- cost
            end
          done)
        [ (); (); (); () ];
      Plan_cache.length c <= Plan_cache.capacity c
      && List.for_all Fun.id
           (List.init n_keys (fun i ->
                match Plan_cache.find_exact c (key i) with
                | None -> best.(i) = infinity
                | Some e ->
                  e.cost = best.(i)
                  && Plan_cache.find_coarse c (coarse i) = Some e)))
    QCheck.small_int

(* --- service ----------------------------------------------------------- *)

let small_config =
  {
    Service.default_config with
    budget = Service.Time_limit { t_factor = 1.0; kappa = None };
  }

let workload_queries () =
  let w =
    Ljqo_querygen.Workload.make ~ns:[ 8; 12 ] ~per_n:3 ~seed:77
      Ljqo_querygen.Benchmark.default
  in
  Array.map (fun (e : Ljqo_querygen.Workload.entry) -> e.query) w.entries

let test_second_pass_all_hits () =
  (* Acceptance: >= 90% exact hits on the second pass, bit-identical plans,
     zero ticks.  (This implementation achieves 100%.) *)
  let queries = workload_queries () in
  let s = Service.create small_config in
  let pass1 = Service.serve_batch s queries in
  let pass2 = Service.serve_batch s queries in
  Array.iteri
    (fun i (r : Service.served) ->
      if r.source <> Service.Exact_hit then
        Alcotest.failf "query %d not served from cache on pass 2" i;
      Alcotest.(check bool) "bit-identical plan" true
        (r.plan = pass1.(i).Service.plan);
      Alcotest.(check int) "no ticks on a hit" 0 r.ticks_used)
    pass2

let perturb ~rng q =
  let n = Query.n_relations q in
  let relations =
    Array.init n (fun i ->
        let r = Query.relation q i in
        let f = 0.92 +. Ljqo_stats.Rng.float rng 0.16 in
        Relation.make ~id:i ~name:r.name
          ~base_cardinality:
            (max 1
               (int_of_float
                  (Float.round (float_of_int r.base_cardinality *. f))))
          ~selections:r.selection_selectivities
          ~distinct_fraction:r.distinct_fraction ())
  in
  Query.make ~relations ~graph:(Query.graph q)

let test_warm_no_worse_than_cold () =
  (* Acceptance: on a perturbed workload under a small tick budget, the mean
     scaled cost with warm starts is <= the cold-start mean.  Scaled against
     a full-budget (9N^2) reference per query, outliers coerced, per the
     paper's methodology. *)
  let queries = workload_queries () in
  let warm_service = Service.create small_config in
  ignore (Service.serve_batch warm_service queries);
  let rng = Ljqo_stats.Rng.create 99 in
  let drifted = Array.map (fun q -> perturb ~rng q) queries in
  let warm = Service.serve_batch warm_service drifted in
  let cold = Service.serve_batch (Service.create small_config) drifted in
  Alcotest.(check bool) "some warm starts engaged" true
    (Array.exists (fun (r : Service.served) -> r.source = Service.Warm_start) warm);
  let reference =
    Array.map
      (fun q ->
        let ticks =
          Budget.ticks_for_limit ~t_factor:9.0
            ~n_joins:(max 1 (Query.n_relations q - 1))
            ()
        in
        (Optimizer.optimize ~method_:Methods.IAI ~model:mem ~ticks ~seed:5 q).cost)
      drifted
  in
  let scaled served =
    Ljqo_stats.Scaled_cost.average
      (Array.mapi
         (fun i (r : Service.served) ->
           Ljqo_stats.Scaled_cost.scale ~best:reference.(i) r.cost)
         served)
  in
  let w = scaled warm and c = scaled cold in
  Alcotest.(check bool)
    (Printf.sprintf "warm mean scaled cost (%.4f) <= cold (%.4f)" w c)
    true (w <= c +. 1e-9)

let served_equal (a : Service.served) (b : Service.served) =
  a.index = b.index && a.plan = b.plan && a.cost = b.cost
  && a.ticks_used = b.ticks_used && a.source = b.source
  && Fingerprint.exact_key a.fingerprint = Fingerprint.exact_key b.fingerprint

let test_jobs_determinism () =
  (* Acceptance: results bit-identical across jobs 1 and jobs 4, both on a
     cold cache and on the warm second pass, and the caches end identical
     too (same lengths, same hit/miss totals). *)
  let queries = workload_queries () in
  let s1 = Service.create small_config in
  let s4 = Service.create small_config in
  let check_pass label =
    let a = Service.serve_batch ~jobs:1 s1 queries in
    let b = Service.serve_batch ~jobs:4 s4 queries in
    Array.iteri
      (fun i r ->
        if not (served_equal r b.(i)) then
          Alcotest.failf "%s: result %d differs between job counts" label i)
      a
  in
  check_pass "cold pass";
  check_pass "warm pass";
  Alcotest.(check int) "same cache size"
    (Plan_cache.length (Service.cache s1))
    (Plan_cache.length (Service.cache s4));
  let st1 = Plan_cache.stats (Service.cache s1) in
  let st4 = Plan_cache.stats (Service.cache s4) in
  Alcotest.(check (list int)) "same cache stats"
    [ st1.hits; st1.coarse_hits; st1.misses; st1.insertions; st1.evictions ]
    [ st4.hits; st4.coarse_hits; st4.misses; st4.insertions; st4.evictions ]

let test_dedup_in_flight () =
  let q = Helpers.random_query ~n_joins:8 123 in
  let twin = permute_query (random_perm (Ljqo_stats.Rng.create 124) 9) q in
  let s = Service.create small_config in
  let served = Service.serve_batch s [| q; twin; q |] in
  Alcotest.(check bool) "first is optimized" true
    (served.(0).Service.source <> Service.Deduped);
  Alcotest.(check bool) "relabeled twin deduped" true
    (served.(1).Service.source = Service.Deduped);
  Alcotest.(check bool) "repeat deduped" true
    (served.(2).Service.source = Service.Deduped);
  Alcotest.(check bool) "twin's plan valid on its own graph" true
    (Plan.is_valid twin served.(1).Service.plan);
  Alcotest.(check bool) "identical repeat gets the identical plan" true
    (served.(2).Service.plan = served.(0).Service.plan);
  Alcotest.(check int) "cached once" 1 (Plan_cache.length (Service.cache s))

let test_disconnected_bypasses_cache () =
  let q = Helpers.disconnected () in
  let s = Service.create small_config in
  let a = Helpers.serve s q in
  let b = Helpers.serve s q in
  Alcotest.(check bool) "first serve cold" true (a.Service.source = Service.Cold);
  Alcotest.(check bool) "second serve still cold" true
    (b.Service.source = Service.Cold);
  Alcotest.(check bool) "same plan both times" true
    (a.Service.plan = b.Service.plan);
  Alcotest.(check int) "nothing cached" 0 (Plan_cache.length (Service.cache s))

let test_create_validation () =
  (match Service.create ~cache_capacity:0 Service.default_config with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cache capacity 0 must raise");
  match
    Service.create
      { Service.default_config with budget = Service.Fixed_ticks 0 }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero tick budget must raise"

(* Allocation contracts of the per-request path, on the 51-relation,
   71-edge query of the [service:fingerprint-n51] and [service:serve-hit]
   micro kernels: 1,541 words for the fingerprint, 3,535 for an exact hit
   (the fingerprint, the lookup, the plan instantiated from the cache and
   its recost).  The counts are exact on one domain; a subject that gains
   an allocation fails them. *)
let micro_query () =
  Ljqo_querygen.Benchmark.generate_query Ljqo_querygen.Benchmark.default
    ~n_joins:50 ~rng:(Ljqo_stats.Rng.create 97)

let check_words label ~expected words =
  if words <> expected then
    Alcotest.failf "%s: %.1f minor words per call, not %.0f" label words expected

let test_fingerprint_allocation () =
  let q = micro_query () in
  check_words "Fingerprint.compute, 51 relations" ~expected:1541.0
    (Helpers.minor_words_per_call (fun () -> Fingerprint.compute q))

(* An exact hit: fingerprint, cache lookup, plan instantiation and the
   recost of the served plan.  One cold run primes the cache. *)
let test_serve_hit_allocation () =
  let q = micro_query () in
  let s =
    Service.create { Service.default_config with budget = Service.Fixed_ticks 1000 }
  in
  ignore (Service.serve_direct s q);
  Alcotest.(check bool) "an exact hit" true
    ((Service.serve_direct s q).d_source = Service.Exact_hit);
  check_words "Service.serve_direct, exact hit" ~expected:3535.0
    (Helpers.minor_words_per_call (fun () -> Service.serve_direct s q))

let suite =
  [
    prop_relabel_invariant;
    prop_plan_maps_across_relabeling;
    Alcotest.test_case "exact-key collision smoke" `Quick test_collision_smoke;
    Alcotest.test_case "wide-graph fingerprint (n > 126)" `Quick
      test_wide_fingerprint;
    Alcotest.test_case "canonical roundtrip" `Quick test_canonical_roundtrip;
    prop_fingerprint_matches_reference;
    Alcotest.test_case "fingerprint corners match the reference" `Quick
      test_fingerprint_reference_edges;
    Alcotest.test_case "fingerprint golden keys" `Quick test_fingerprint_golden;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache admission policy" `Quick test_cache_admission;
    Alcotest.test_case "cache lookup and counters" `Quick
      test_cache_lookup_counters;
    Alcotest.test_case "cache rejects bad capacity" `Quick
      test_cache_rejects_bad_capacity;
    prop_cache_concurrent_storm;
    Alcotest.test_case "second pass served from cache" `Quick
      test_second_pass_all_hits;
    Alcotest.test_case "warm no worse than cold" `Slow
      test_warm_no_worse_than_cold;
    Alcotest.test_case "deterministic across job counts" `Quick
      test_jobs_determinism;
    Alcotest.test_case "in-flight dedup" `Quick test_dedup_in_flight;
    Alcotest.test_case "disconnected queries bypass the cache" `Quick
      test_disconnected_bypasses_cache;
    Alcotest.test_case "create validates its inputs" `Quick
      test_create_validation;
    Alcotest.test_case "fingerprint allocation at 51 relations" `Quick
      test_fingerprint_allocation;
    Alcotest.test_case "serve_direct exact-hit allocation" `Quick
      test_serve_hit_allocation;
  ]

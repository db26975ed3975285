(* Bechamel micro-benchmarks of the optimizer's hot paths: one Test.make per
   reproduced table/figure's dominant kernel, so regressions in the pieces
   that determine experiment wall-time are visible in isolation.

   The "kernel:*" group times the bitset hot paths on the same inputs
   (N = 50 joins); for the random-plan bookkeeping and induced connectivity
   it also times the pre-bitset scan/list form, so the speedup that
   justified the rewrite stays measured.  Results also go to
   results/BENCH_micro.json (kernel name, ns/run, minor words/run) for
   machine consumption. *)

open Bechamel
open Toolkit
open Ljqo_core
open Ljqo_catalog

module Qgen = Ljqo_querygen.Benchmark

let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)

let disk_model = (module Ljqo_cost.Disk_model : Ljqo_cost.Cost_model.S)

let query_of_size n_joins =
  let rng = Ljqo_stats.Rng.create 97 in
  Qgen.generate_query Qgen.default ~n_joins ~rng

let query = query_of_size 50

let plan =
  let rng = Ljqo_stats.Rng.create 3 in
  Random_plan.generate rng query

(* Table 1 kernel: one augmentation state. *)
let test_augmentation =
  Test.make ~name:"table1:augmentation-state"
    (Staged.stage (fun () ->
         ignore (Augmentation.generate query Augmentation.default_criterion ~start:0)))

(* The same on a graph-dense query of 201 relations, where scoring a
   candidate visits many placed edges. *)
let test_augmentation_dense =
  let q =
    Qgen.generate_query
      (List.find (fun (s : Qgen.spec) -> s.name = "graph-dense") Qgen.variations)
      ~n_joins:200 ~rng:(Ljqo_stats.Rng.create 97)
  in
  let start = List.hd (Augmentation.starts q) in
  Test.make ~name:"table1:augmentation-state-dense"
    (Staged.stage (fun () ->
         ignore (Augmentation.generate q Augmentation.default_criterion ~start)))

(* Table 2 kernel: one KBZ rooted ordering (tree prebuilt). *)
let kbz_tree = Kbz.spanning_tree query Kbz.default_weighting

let test_kbz =
  Test.make ~name:"table2:kbz-rooted-ordering"
    (Staged.stage (fun () ->
         ignore (Kbz.optimal_for_root query ~tree:kbz_tree ~root:0)))

(* Figures 4-6 kernel: full plan costing under the memory model. *)
let test_eval_memory =
  Test.make ~name:"fig4-6:plan-cost-memory"
    (Staged.stage (fun () -> ignore (Ljqo_cost.Plan_cost.total model query plan)))

(* Figure 7 kernel: full plan costing under the disk model. *)
let test_eval_disk =
  Test.make ~name:"fig7:plan-cost-disk"
    (Staged.stage (fun () -> ignore (Ljqo_cost.Plan_cost.total disk_model query plan)))

(* Table 3 kernel: a complete small-budget IAI run (the per-query unit of the
   benchmark sweep). *)
let test_iai_run =
  let q = query_of_size 20 in
  Test.make ~name:"table3:iai-run-small"
    (Staged.stage (fun () ->
         ignore
           (Optimizer.optimize ~method_:Methods.IAI ~model
              ~ticks:(Budget.ticks_for_limit ~t_factor:1.5 ~n_joins:20 ())
              ~seed:5 q)))

(* Workload generation shared by every experiment. *)
let test_generate =
  Test.make ~name:"all:query-generation"
    (Staged.stage (fun () ->
         let rng = Ljqo_stats.Rng.create 11 in
         ignore (Qgen.generate_query Qgen.default ~n_joins:50 ~rng)))

(* ------------------------------------------------------------------ *)
(* Bitset kernels vs their pre-bitset scan forms (N = 50 joins).      *)

let n = Query.n_relations query

(* Move-validity: the full-plan validity sweep (every relation past the
   first joins something earlier), one allocation-free pass of word-ANDs
   against the running prefix. *)
let test_validity_mask =
  Test.make ~name:"kernel:move-validity-mask"
    (Staged.stage (fun () -> ignore (Plan.is_valid query plan)))

(* Random-plan generation.  The rewritten kernel is the candidate-set
   maintenance (discover/membership/pick); the RNG is untouched by the
   rewrite and consumed identically by both forms, yet its arithmetic
   would dominate both sides of the measurement.  So the kernel
   pair replays a pick sequence recorded once from the real generator, and
   [kernel:random-plan-full-mask] reports the full generator (RNG included)
   for the end-to-end picture.  Both replay kernels are asserted to
   reproduce the production generator's plan exactly. *)

let picks =
  (* The first relation, then each step's candidate index, recorded by
     running the reference bookkeeping against the real RNG. *)
  let rng = Ljqo_stats.Rng.create 3 in
  let graph = Query.graph query in
  let picks = Array.make n 0 in
  let placed = Array.make n false in
  let candidates = Array.make n 0 in
  let cand_index = Array.make n (-1) in
  let cand_count = ref 0 in
  let place r =
    placed.(r) <- true;
    (let i = cand_index.(r) in
     if i >= 0 then begin
       let last = candidates.(!cand_count - 1) in
       candidates.(i) <- last;
       cand_index.(last) <- i;
       cand_index.(r) <- -1;
       decr cand_count
     end);
    List.iter
      (fun (other, _) ->
        if (not placed.(other)) && cand_index.(other) < 0 then begin
          candidates.(!cand_count) <- other;
          cand_index.(other) <- !cand_count;
          incr cand_count
        end)
      (Join_graph.neighbors graph r)
  in
  picks.(0) <- Ljqo_stats.Rng.int rng n;
  place picks.(0);
  for i = 1 to n - 1 do
    picks.(i) <- Ljqo_stats.Rng.int rng !cand_count;
    place candidates.(picks.(i))
  done;
  picks

(* Pre-bitset bookkeeping (test/random_plan_reference.ml minus the RNG):
   placed and candidate-index side tables, neighbor lists. *)
let random_plan_scan_kernel () =
  let graph = Query.graph query in
  let perm = Array.make n (-1) in
  let placed = Array.make n false in
  let candidates = Array.make n 0 in
  let cand_index = Array.make n (-1) in
  let cand_count = ref 0 in
  let add_candidate r =
    if (not placed.(r)) && cand_index.(r) < 0 then begin
      candidates.(!cand_count) <- r;
      cand_index.(r) <- !cand_count;
      incr cand_count
    end
  in
  let remove_candidate r =
    let i = cand_index.(r) in
    if i >= 0 then begin
      let last = candidates.(!cand_count - 1) in
      candidates.(i) <- last;
      cand_index.(last) <- i;
      cand_index.(r) <- -1;
      decr cand_count
    end
  in
  let place i r =
    perm.(i) <- r;
    placed.(r) <- true;
    remove_candidate r;
    List.iter (fun (other, _) -> add_candidate other) (Join_graph.neighbors graph r)
  in
  place 0 picks.(0);
  for i = 1 to n - 1 do
    place i candidates.(picks.(i))
  done;
  perm

(* Bitset bookkeeping (generate_masked minus the RNG): seen-set as two raw
   words, candidate array only. *)
let random_plan_mask_kernel () =
  let adjacency = Join_graph.adjacency (Query.graph query) in
  let perm = Array.make n (-1) in
  let candidates = Array.make n 0 in
  let cand_count = ref 0 in
  let s0 = ref 0 and s1 = ref 0 in
  let place i r =
    Array.unsafe_set perm i r;
    if r < 63 then s0 := !s0 lor (1 lsl r) else s1 := !s1 lor (1 lsl (r - 63));
    let ids = Array.unsafe_get adjacency r in
    for j = 0 to Array.length ids - 1 do
      let w = Array.unsafe_get ids j in
      if w < 63 then begin
        let b = 1 lsl w in
        if !s0 land b = 0 then begin
          Array.unsafe_set candidates !cand_count w;
          s0 := !s0 lor b;
          incr cand_count
        end
      end
      else begin
        let b = 1 lsl (w - 63) in
        if !s1 land b = 0 then begin
          Array.unsafe_set candidates !cand_count w;
          s1 := !s1 lor b;
          incr cand_count
        end
      end
    done
  in
  place 0 picks.(0);
  for i = 1 to n - 1 do
    let idx = picks.(i) in
    let r = Array.unsafe_get candidates idx in
    Array.unsafe_set candidates idx (Array.unsafe_get candidates (!cand_count - 1));
    decr cand_count;
    place i r
  done;
  perm

let () =
  (* Both replay kernels must reproduce the production generator's plan. *)
  let expect = Random_plan.generate (Ljqo_stats.Rng.create 3) query in
  assert (random_plan_scan_kernel () = expect);
  assert (random_plan_mask_kernel () = expect)

let test_random_plan_scan =
  Test.make ~name:"kernel:random-plan-scan"
    (Staged.stage (fun () -> ignore (random_plan_scan_kernel ())))

let test_random_plan_mask =
  Test.make ~name:"kernel:random-plan-mask"
    (Staged.stage (fun () -> ignore (random_plan_mask_kernel ())))

let test_random_plan_full_mask =
  Test.make ~name:"kernel:random-plan-full-mask"
    (Staged.stage (fun () ->
         let rng = Ljqo_stats.Rng.create 3 in
         ignore (Random_plan.generate rng query)))

(* Induced-subgraph connectivity on a half-plan window. *)
let window_list = Array.to_list (Array.sub plan 0 (n / 2))

let window_mask = Bitset.of_list window_list

let test_connected_list =
  Test.make ~name:"kernel:induced-connected-list"
    (Staged.stage (fun () ->
         ignore (Join_graph.induced_connected (Query.graph query) window_list)))

let test_connected_mask =
  Test.make ~name:"kernel:induced-connected-mask"
    (Staged.stage (fun () ->
         ignore
           (Join_graph.induced_connected_mask (Query.graph query) window_mask)))

(* The bitset DP baseline on a mid-size query — the whole per-size expansion
   loop including subset hashing and reconstruction. *)
let test_dp =
  let q = query_of_size 12 in
  Test.make ~name:"kernel:dp-bitset-n13"
    (Staged.stage (fun () -> ignore (Dp.optimize ~jobs:1 model q)))

(* ------------------------------------------------------------------ *)
(* Neighbor evaluation: one full adjacent-swap sweep (N-1 neighbors) over
   an N = 50 state, each candidate considered and rejected, so the state is
   created once and never mutated.  Unlimited-tick evaluator, so no budget
   exception can fire mid-measurement. *)

let neighbors_fused_workspace =
  Neighborhood.create
    (Search_state.init (Evaluator.create ~query ~model ~ticks:0 ()) plan)

let neighbors_sweep nb =
  let acc = ref 0.0 in
  for i = 0 to Search_state.n (Neighborhood.state nb) - 2 do
    match Neighborhood.consider nb (Move.Swap (i, i + 1)) with
    | None -> ()
    | Some total ->
      acc := !acc +. total;
      Neighborhood.reject nb
  done;
  !acc

let test_neighbors_fused =
  Test.make ~name:"search:neighbors-fused"
    (Staged.stage (fun () -> ignore (neighbors_sweep neighbors_fused_workspace)))

(* Table 3's local phase: one (3, 2) local-improvement pass — every
   arrangement of every cluster a window rewrite through the same kernel —
   on a fresh state from the N = 50 plan. *)
let test_local_improvement_pass =
  Test.make ~name:"table3:local-improvement-pass"
    (Staged.stage (fun () ->
         let ev = Evaluator.create ~query ~model ~ticks:0 () in
         ignore (Local_improvement.one_pass (Search_state.init ev plan) ~c:3 ~o:2)))

(* ------------------------------------------------------------------ *)
(* Growable-width kernels (N = 200): sets that spill past the two inline
   words.  [bitset:wide-ops] is the set algebra DP and the mask kernels
   lean on, on tailed sets; [search:neighbors-fused-wide] is the same sweep
   as above on a graph past 126 relations, through the same position-based
   path.  *)

let wide_query = query_of_size 200

let wide_n = Query.n_relations wide_query

let wide_plan =
  let rng = Ljqo_stats.Rng.create 3 in
  Random_plan.generate rng wide_query

let wide_sets =
  Array.init 16 (fun i ->
      let rng = Ljqo_stats.Rng.create (40 + i) in
      let s = ref Bitset.empty in
      for _ = 1 to 40 do
        s := Bitset.add (Ljqo_stats.Rng.int rng wide_n) !s
      done;
      !s)

let bitset_wide_ops_kernel () =
  let acc = ref 0 in
  for i = 0 to Array.length wide_sets - 2 do
    let a = Array.unsafe_get wide_sets i in
    let b = Array.unsafe_get wide_sets (i + 1) in
    acc :=
      !acc
      + Bitset.cardinal (Bitset.union a b)
      + Bitset.cardinal (Bitset.inter a b)
      + Bitset.cardinal (Bitset.diff a b)
      + (if Bitset.intersects a b then 1 else 0)
      + (if Bitset.subset a b then 1 else 0)
      + Bitset.hash a + Bitset.compare a b
  done;
  !acc

let test_bitset_wide_ops =
  Test.make ~name:"bitset:wide-ops"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (bitset_wide_ops_kernel ()))))

let wide_neighbors_fused_workspace =
  Neighborhood.create
    (Search_state.init (Evaluator.create ~query:wide_query ~model ~ticks:0 ()) wide_plan)

let test_neighbors_fused_wide =
  Test.make ~name:"search:neighbors-fused-wide"
    (Staged.stage (fun () -> ignore (neighbors_sweep wide_neighbors_fused_workspace)))

(* Portfolio barrier overhead: fold [width] replicate results in replicate
   order into the round's incumbent and re-derive each replicate's child RNG
   stream — the per-round coordination cost the portfolio adds on top of the
   legs' own search work. *)

let exchange_width = 8

let exchange_results =
  Array.init exchange_width (fun i ->
      let p = Random_plan.generate (Ljqo_stats.Rng.create (100 + i)) query in
      (Ljqo_cost.Plan_cost.total model query p, p))

let exchange_rng = Ljqo_stats.Rng.create 7

let portfolio_exchange_kernel () =
  let best = ref infinity in
  let best_plan = ref (snd exchange_results.(0)) in
  Array.iter
    (fun (c, p) ->
      if c < !best then begin
        best := c;
        best_plan := p
      end)
    exchange_results;
  let acc = ref 0 in
  for i = 0 to exchange_width - 1 do
    let child = Ljqo_stats.Rng.split_at exchange_rng i in
    acc := !acc + Ljqo_stats.Rng.int child 1000
  done;
  (Array.copy !best_plan, !acc)

let test_portfolio_exchange =
  Test.make ~name:"portfolio:exchange"
    (Staged.stage (fun () -> ignore (portfolio_exchange_kernel ())))

(* ------------------------------------------------------------------ *)
(* Service-layer kernels: the fingerprint hash (the per-request cost of
   cache addressing) and cache get/put against a populated cache.        *)

module Fingerprint = Ljqo_service.Fingerprint
module Plan_cache = Ljqo_service.Plan_cache

let fp = Fingerprint.compute query

let cache_entry =
  { Plan_cache.cplan = Fingerprint.to_canonical fp plan; cost = 1.0; ticks = 0 }

let bench_cache =
  (* Populated with this query plus synthetic distinct keys, so get and put
     measure steady-state lookups in non-trivial shards, not an empty table. *)
  let c = Plan_cache.create ~capacity:256 () in
  for i = 0 to 199 do
    Plan_cache.put c
      ~exact:(Printf.sprintf "%016x" (0x1234 + (i * 0x9E3779B9)))
      ~coarse:(Printf.sprintf "%016x" (0x4321 + (i * 0x85EBCA6B)))
      cache_entry
  done;
  Plan_cache.put c ~exact:(Fingerprint.exact_key fp)
    ~coarse:(Fingerprint.coarse_key fp) cache_entry;
  c

let test_fingerprint =
  Test.make ~name:"service:fingerprint-n51"
    (Staged.stage (fun () -> ignore (Fingerprint.compute query)))

let test_cache_get =
  Test.make ~name:"service:cache-get"
    (Staged.stage (fun () ->
         ignore (Plan_cache.find_exact bench_cache (Fingerprint.exact_key fp))))

let test_cache_put =
  (* Re-putting an existing key: the steady-state admission path (promote,
     compare costs) without growing the cache between iterations. *)
  Test.make ~name:"service:cache-put"
    (Staged.stage (fun () ->
         Plan_cache.put bench_cache ~exact:(Fingerprint.exact_key fp)
           ~coarse:(Fingerprint.coarse_key fp) cache_entry))

module Service = Ljqo_service.Service

(* An exact plan-cache hit through the server's per-request path:
   fingerprint, lookup, plan instantiation and recost.  One cold run on the
   same query primes the cache. *)
let hit_service =
  let s =
    Service.create
      { Service.default_config with budget = Service.Fixed_ticks 1000 }
  in
  ignore (Service.serve_direct s query);
  s

let test_serve_hit =
  Test.make ~name:"service:serve-hit"
    (Staged.stage (fun () -> ignore (Service.serve_direct hit_service query)))

module Request_queue = Ljqo_service.Request_queue

let bench_queue = Request_queue.create ~capacity:64 ()

let test_queue_push_pop =
  (* One uncontended handoff through the server's bounded queue: the fixed
     per-request synchronization cost a worker pays before any optimization
     work starts.  Single-domain, so this is the mutex + queue floor, not a
     contention benchmark. *)
  Test.make ~name:"service:queue-push-pop"
    (Staged.stage (fun () ->
         ignore (Request_queue.try_push bench_queue 42);
         ignore (Request_queue.pop bench_queue)))

(* ------------------------------------------------------------------ *)
(* Observability-off overhead: the cost a hot loop pays per
   instrumentation site when collection is disabled.  The contract is "one
   boolean load and a predictable branch"; these kernels keep it honest.   *)

module Obs = Ljqo_obs.Obs

let test_obs_counter_off =
  Test.make ~name:"obs:counter-disabled"
    (Staged.stage (fun () -> Obs.bump Obs.Cost_evals))

let test_obs_hist_off =
  Test.make ~name:"obs:hist-disabled"
    (Staged.stage (fun () -> Obs.hist_record Obs.Move_delta 42))

let test_obs_span_off =
  Test.make ~name:"obs:span-disabled"
    (Staged.stage (fun () -> Obs.span "bench" (fun () -> Sys.opaque_identity 0)))

(* ------------------------------------------------------------------ *)
(* Execution feedback: the per-sample cost of [Feedback.measure]'s inner
   loop — one q-error computation plus one enabled histogram record into
   the per-depth bucket.  Collection is flipped on around the loop (and
   back off, so the obs:*-disabled kernels above keep their contract);
   the toggle cost amortizes over the eight samples. *)

module Feedback = Ljqo_feedback.Feedback

let qerror_samples =
  (* Depths 1-5 with estimates off by factors spanning the magnitudes the
     report buckets distinguish, both over- and under-estimates. *)
  [|
    (1, 120.0, 100.0);
    (1, 40.0, 400.0);
    (2, 1.0e3, 2.5e4);
    (2, 9.0e4, 3.0e3);
    (3, 5.0e5, 5.0e5);
    (3, 2.0e2, 0.0);
    (4, 1.0e7, 4.0e4);
    (5, 8.0e2, 6.0e6);
  |]

let qerror_record_kernel () =
  Obs.set_enabled true;
  let acc = ref 0.0 in
  for i = 0 to Array.length qerror_samples - 1 do
    let d, est, act = Array.unsafe_get qerror_samples i in
    let q = Ljqo_cost.Plan_cost.qerror ~est ~act in
    Obs.hist_record (Feedback.depth_hist d) (Feedback.milli q);
    acc := !acc +. q
  done;
  Obs.set_enabled false;
  !acc

let test_feedback_qerror_record =
  Test.make ~name:"feedback:qerror-record"
    (Staged.stage (fun () ->
         ignore (Sys.opaque_identity (qerror_record_kernel ()))))

(* Plan execution in the feedback workload's shape: default-spec queries at
   N = 3..6, four of each size, their IAI plans and generated data fixed
   up front, each executed under a 10,000-row cap (some overflow it, as in
   [Feedback.run_spec]).  One run executes all sixteen plans, so per-plan
   figures are a sixteenth of the run's.  The batch is built on first use:
   built at start-up, its garbage doubled the obs kernels' readings. *)

module Executor = Ljqo_exec.Executor

let exec_batch =
  lazy
    (List.concat_map
    (fun n_joins ->
      List.init 4 (fun k ->
          let rng = Ljqo_stats.Rng.create ((100 * n_joins) + k) in
          let q = Qgen.generate_query Qgen.default ~n_joins ~rng in
          let data = Ljqo_exec.Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.split rng) in
          let ticks = Optimizer.time_limit_ticks ~t_factor:1.0 ~query:q () in
          let plan = (Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:k q).plan in
          (q, data, plan)))
    [ 3; 4; 5; 6 ]
  |> Array.of_list)

let exec_feedback_mix () =
  Array.iter
    (fun (q, data, plan) ->
      match Executor.run ~max_rows:10_000 q ~data plan with
      | r -> ignore (Sys.opaque_identity r)
      | exception Executor.Result_too_large _ -> ())
    (Lazy.force exec_batch)

let test_exec_feedback_mix =
  Test.make ~name:"exec:feedback-mix" (Staged.stage exec_feedback_mix)

(* One bounded integer draw: the unit of random data generation and of
   every randomized search move. *)
let rng_bench = Ljqo_stats.Rng.create 29

let test_rng_int =
  Test.make ~name:"rng:int"
    (Staged.stage (fun () -> ignore (Sys.opaque_identity (Ljqo_stats.Rng.int rng_bench 1000))))

let tests =
  Test.make_grouped ~name:"ljqo"
    [
      test_obs_counter_off;
      test_obs_hist_off;
      test_obs_span_off;
      test_rng_int;
      test_augmentation;
      test_augmentation_dense;
      test_kbz;
      test_eval_memory;
      test_eval_disk;
      test_iai_run;
      test_local_improvement_pass;
      test_generate;
      test_validity_mask;
      test_random_plan_scan;
      test_random_plan_mask;
      test_random_plan_full_mask;
      test_connected_list;
      test_connected_mask;
      test_neighbors_fused;
      test_bitset_wide_ops;
      test_neighbors_fused_wide;
      test_portfolio_exchange;
      test_dp;
      test_fingerprint;
      test_cache_get;
      test_cache_put;
      test_serve_hit;
      test_queue_push_pop;
      test_feedback_qerror_record;
      (* Last: the garbage it leaves would slow the kernels measured after it. *)
      test_exec_feedback_mix;
    ]

(* ------------------------------------------------------------------ *)
(* Measurement and reporting.                                          *)

type row = { name : string; ns_per_run : float; minor_words_per_run : float }

let estimate tbl name =
  match Hashtbl.find_opt tbl name with
  | Some result -> (
    match Analyze.OLS.estimates result with Some [ est ] -> est | _ -> nan)
  | None -> nan

(* Scan/mask pairs whose ratio the JSON reports as the speedup evidence. *)
let speedup_pairs =
  [
    ("random-plan", "ljqo/kernel:random-plan-scan", "ljqo/kernel:random-plan-mask");
    ( "induced-connected",
      "ljqo/kernel:induced-connected-list",
      "ljqo/kernel:induced-connected-mask" );
  ]

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float x =
  if Float.is_nan x then "null" else Printf.sprintf "%.3f" x

let write_json ~out ~quota rows =
  let dir = Filename.dirname out in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out out in
  let speedups =
    List.filter_map
      (fun (label, scan, mask) ->
        let s = List.find_opt (fun r -> r.name = scan) rows in
        let m = List.find_opt (fun r -> r.name = mask) rows in
        match (s, m) with
        | Some s, Some m when m.ns_per_run > 0.0 ->
          Some (label, s.ns_per_run /. m.ns_per_run)
        | _ -> None)
      speedup_pairs
  in
  Printf.fprintf oc "{\n  \"quota_seconds\": %s,\n  \"kernels\": [\n"
    (json_float quota);
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"ns_per_run\": %s, \"minor_words_per_run\": %s}%s\n"
        (json_escape r.name) (json_float r.ns_per_run)
        (json_float r.minor_words_per_run)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"speedups\": {\n";
  List.iteri
    (fun i (label, ratio) ->
      Printf.fprintf oc "    \"%s\": %s%s\n" (json_escape label)
        (json_float ratio)
        (if i = List.length speedups - 1 then "" else ","))
    speedups;
  Printf.fprintf oc "  }\n}\n";
  close_out oc

let default_out = Filename.concat "results" "BENCH_micro.json"

let run ?(quota = 0.5) ?(out = default_out) () =
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let nanos = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols Instance.minor_allocated raw in
  let rows =
    Hashtbl.fold (fun name _ acc -> name :: acc) nanos []
    |> List.sort String.compare
    |> List.map (fun name ->
           {
             name;
             ns_per_run = estimate nanos name;
             minor_words_per_run = estimate words name;
           })
  in
  print_endline "Micro-benchmarks (ns/run, minor words/run):";
  List.iter
    (fun r ->
      Printf.printf "  %-40s %12.1f ns %12.1f w\n" r.name r.ns_per_run
        r.minor_words_per_run)
    rows;
  List.iter
    (fun (label, scan, mask) ->
      let s = estimate nanos scan and m = estimate nanos mask in
      if (not (Float.is_nan s)) && (not (Float.is_nan m)) && m > 0.0 then
        Printf.printf "  speedup %-20s %.2fx\n" label (s /. m))
    speedup_pairs;
  write_json ~out ~quota rows;
  Printf.printf "  [written to %s]\n%!" out

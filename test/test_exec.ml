open Ljqo_catalog
open Ljqo_exec

let data_for ?(seed = 1) q = Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.create seed)

let test_data_matches_stats () =
  let q = Helpers.chain3 () in
  let data = data_for q in
  Array.iteri
    (fun r d ->
      Alcotest.(check int) "cardinality"
        (int_of_float (Float.round (Query.cardinality q r)))
        (Relation_data.cardinality d);
      List.iter
        (fun (other, _) ->
          let seen = Hashtbl.create 64 in
          Array.iter
            (fun v -> Hashtbl.replace seen v ())
            (Relation_data.column d ~other);
          let dc = Hashtbl.length seen in
          Alcotest.(check bool) "distinct bounded by D" true
            (float_of_int dc <= Query.distinct_values q r +. 0.5))
        (Join_graph.neighbors (Query.graph q) r))
    data

let test_hash_join_matches_oracle () =
  for seed = 1 to 10 do
    let q = Helpers.small_exec_query ~n_joins:3 seed in
    let data = data_for ~seed q in
    let plan = Helpers.valid_random_plan q (seed * 3) in
    let hash = Executor.run q ~data plan in
    let oracle = Executor.nested_loop_oracle q ~data plan in
    Alcotest.(check int) (Printf.sprintf "seed %d" seed) oracle hash.row_count
  done

let test_cross_product_size () =
  let q = Helpers.disconnected () in
  let data = data_for q in
  (* C (relation 2) is its own component: joining it last is a cross *)
  let r = Executor.run q ~data [| 0; 1; 2 |] in
  let ab = List.nth (Executor.cardinalities r) 1 in
  let final = List.nth (Executor.cardinalities r) 2 in
  Alcotest.(check int) "cross multiplies" (ab * 50) final

let test_result_too_large () =
  let relations =
    [|
      Helpers.rel ~id:0 ~card:1000 ~distinct:0.001 ();
      Helpers.rel ~id:1 ~card:1000 ~distinct:0.001 ();
    |]
  in
  let q =
    Query.make ~relations
      ~graph:(Join_graph.make ~n:2 [ { Join_graph.u = 0; v = 1; selectivity = 1.0 } ])
  in
  let data = data_for q in
  match Executor.run ~max_rows:100 q ~data [| 0; 1 |] with
  | exception Executor.Result_too_large n ->
    Alcotest.(check bool) "cap reported" true (n > 100)
  | _ -> Alcotest.fail "expected Result_too_large"

let test_cardinalities_shape () =
  let q = Helpers.chain3 () in
  let data = data_for q in
  let r = Executor.run q ~data [| 2; 1; 0 |] in
  let cards = Executor.cardinalities r in
  Alcotest.(check int) "one entry per position" 3 (List.length cards);
  Alcotest.(check int) "first is C's cardinality" 10 (List.hd cards);
  Alcotest.(check int) "last matches rows" r.row_count (List.nth cards 2)

let test_input_validation () =
  let q = Helpers.chain3 () in
  let data = data_for q in
  (match Executor.run q ~data [| 0; 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short plan accepted");
  let swapped = [| data.(1); data.(0); data.(2) |] in
  match Executor.run q ~data:swapped [| 0; 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "misindexed data accepted"

let test_single_join_expectation () =
  (* |R ⋈ S| should be near N_r * N_s / max(D_r, D_s) on average. *)
  let relations =
    [|
      Helpers.rel ~id:0 ~card:400 ~distinct:0.25 ();
      (* D = 100 *)
      Helpers.rel ~id:1 ~card:300 ~distinct:0.5 ();
      (* D = 150 *)
    |]
  in
  let q =
    Query.make ~relations
      ~graph:
        (Join_graph.make ~n:2
           [ { Join_graph.u = 0; v = 1; selectivity = 1.0 /. 150.0 } ])
  in
  let expected = 400.0 *. 300.0 /. 150.0 in
  let total = ref 0 in
  let trials = 20 in
  for seed = 1 to trials do
    let data = data_for ~seed q in
    let r = Executor.run q ~data [| 0; 1 |] in
    total := !total + r.row_count
  done;
  let mean = float_of_int !total /. float_of_int trials in
  if mean < expected *. 0.85 || mean > expected *. 1.15 then
    Alcotest.failf "join size off: expected ~%.0f, got %.0f" expected mean

let test_plan_order_preserves_final_size () =
  (* The final result is the same set regardless of join order. *)
  for seed = 1 to 8 do
    let q = Helpers.small_exec_query ~n_joins:3 (100 + seed) in
    let data = data_for ~seed q in
    let p1 = Helpers.valid_random_plan q 1 in
    let p2 = Helpers.valid_random_plan q 2 in
    let r1 = Executor.run q ~data p1 in
    let r2 = Executor.run q ~data p2 in
    Alcotest.(check int)
      (Printf.sprintf "final size invariant (seed %d)" seed)
      r1.row_count r2.row_count
  done

let prop_hash_equals_oracle =
  Helpers.qcheck_case ~count:25 ~name:"hash join executor equals nested-loop oracle"
    (fun (qseed, pseed) ->
      let q = Helpers.small_exec_query ~n_joins:3 qseed in
      let data = data_for ~seed:qseed q in
      let plan = Helpers.valid_random_plan q pseed in
      match
        ( Executor.run ~max_rows:200_000 q ~data plan,
          Executor.nested_loop_oracle ~max_rows:200_000 q ~data plan )
      with
      | r, oracle -> r.row_count = oracle
      | exception Executor.Result_too_large _ -> QCheck.assume_fail ())
    QCheck.(pair small_int small_int)

(* --- the columnar executor against the row-at-a-time oracle ----------- *)

module Benchmark = Ljqo_querygen.Benchmark
module Rng = Ljqo_stats.Rng

(* One execution to compare: a [Benchmark] query, its data (statistical or
   through the selection pipeline), a plan and a row cap. *)
type case = {
  spec : int;  (* [Benchmark.by_index] *)
  n_joins : int;
  pipeline : bool;
  plan_kind : [ `Optimized | `Random_valid | `Arbitrary ];
  cap : int option;  (* None = the default cap *)
  seed : int;
}

let show_case c =
  Printf.sprintf "spec %d, N=%d, %s data, %s plan, cap %s, seed %d" c.spec c.n_joins
    (if c.pipeline then "pipeline" else "statistical")
    (match c.plan_kind with
    | `Optimized -> "optimized"
    | `Random_valid -> "random valid"
    | `Arbitrary -> "arbitrary")
    (match c.cap with Some k -> string_of_int k | None -> "default")
    c.seed

let build c =
  let rng = Rng.create c.seed in
  let q = Benchmark.generate_query (Benchmark.by_index c.spec) ~n_joins:c.n_joins ~rng in
  let data =
    if c.pipeline then Pipeline.prepare q ~rng:(Rng.split rng)
    else Relation_data.generate_all q ~rng:(Rng.split rng)
  in
  let plan =
    match c.plan_kind with
    | `Optimized ->
      let ticks = Ljqo_core.Optimizer.time_limit_ticks ~t_factor:1.0 ~query:q () in
      (Ljqo_core.Optimizer.optimize ~method_:Ljqo_core.Methods.IAI
         ~model:Helpers.memory_model ~ticks ~seed:c.seed q)
        .plan
    | `Random_valid -> Ljqo_core.Random_plan.generate (Rng.split rng) q
    | `Arbitrary ->
      let p = Array.init (Query.n_relations q) Fun.id in
      Rng.shuffle_in_place (Rng.split rng) p;
      p
  in
  (q, data, plan)

(* A run's observable outcome: the result and the final rows [on_row] saw
   in order, or the overflow payload, with every step statistic [on_step]
   saw before it. *)
let outcome run =
  let seen = ref [] and rows = ref [] in
  let r =
    match
      run
        ~on_step:(fun s -> seen := s :: !seen)
        ~on_row:(fun row -> rows := Array.copy row :: !rows)
    with
    | (r : Executor.result) -> Ok (r, List.rev !rows)
    | exception Executor.Result_too_large k -> Error k
  in
  (r, List.rev !seen)

let columnar c =
  let q, data, plan = build c in
  outcome (fun ~on_step ~on_row -> Executor.run ?max_rows:c.cap ~on_step ~on_row q ~data plan)

let reference c =
  let q, data, plan = build c in
  outcome (fun ~on_step ~on_row ->
      Executor_reference.run ?max_rows:c.cap ~on_step ~on_row q ~data plan)

let gen_case ~caps =
  QCheck.Gen.(
    map
      (fun ((spec, n_joins, pipeline), (kind, cap, seed)) ->
        {
          spec;
          n_joins;
          pipeline;
          plan_kind = [| `Optimized; `Random_valid; `Arbitrary |].(kind);
          cap = caps.(cap);
          seed;
        })
      (pair
         (triple (int_range 0 9) (int_range 1 6) bool)
         (triple (int_range 0 2) (int_range 0 (Array.length caps - 1)) (int_bound 1_000_000))))

let arb_case ~caps = QCheck.make ~print:show_case (gen_case ~caps)

(* A cap of a few rows truncates nearly every plan at its first join; 10,000
   is the feedback benchmark's cap.  The default cap is drawn only for plans
   whose intermediates stay within 200,000 rows, which the oracle enumerates
   in well under a second; overflow itself is covered by the smaller caps. *)
let prop_run_equals_reference =
  Helpers.qcheck_case ~count:360 ~name:"runs equal the row-at-a-time oracle"
    (fun c ->
      if c.cap = None && Result.is_error (fst (columnar { c with cap = Some 200_000 })) then
        QCheck.assume_fail ()
      else columnar c = reference c)
    (arb_case ~caps:[| Some 3; Some 50; Some 10_000; None |])

(* The same executions fanned out over two domains (each with its own
   scratch) and run in sequence on this one. *)
let test_parallel_equals_sequential () =
  let cases =
    Array.init 60 (fun i ->
        QCheck.Gen.generate1 ~rand:(Random.State.make [| 17; i |])
          (gen_case ~caps:[| Some 50; Some 10_000 |]))
  in
  let seq = Array.map columnar cases in
  let par = Ljqo_stats.Parallel.map_array ~jobs:2 columnar cases in
  Array.iteri
    (fun i c ->
      if seq.(i) <> par.(i) then Alcotest.failf "differs under jobs=2: %s" (show_case c);
      if seq.(i) <> reference c then Alcotest.failf "differs from the oracle: %s" (show_case c))
    cases

(* The [exec.probe_comparisons] counter adds each completed step's probes;
   the step that overflows the cap adds none. *)
let test_probe_counter () =
  let module Obs = Ljqo_obs.Obs in
  let cases =
    Array.init 30 (fun i ->
        QCheck.Gen.generate1 ~rand:(Random.State.make [| 23; i |])
          (gen_case ~caps:[| Some 50; Some 10_000 |]))
  in
  let expected =
    Array.fold_left
      (fun acc c ->
        let _, seen = reference c in
        List.fold_left (fun acc (s : Executor.step_stat) -> acc + s.probe_comparisons) acc seen)
      0 cases
  in
  let truncated = Array.exists (fun c -> Result.is_error (fst (reference c))) cases in
  Alcotest.(check bool) "some runs overflow" true truncated;
  Obs.reset ();
  Obs.set_enabled true;
  let counted =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        Array.iter (fun c -> ignore (columnar c)) cases;
        List.assoc "exec.probe_comparisons" (Obs.snapshot ()).counters)
  in
  Alcotest.(check int) "completed steps' probes" expected counted

(* A run started from inside another run's [on_step] or [on_row] gets its
   own scratch: both results equal the oracle's. *)
let test_nested_run () =
  let outer =
    { spec = 0; n_joins = 5; pipeline = false; plan_kind = `Random_valid; cap = Some 10_000; seed = 9 }
  in
  let inner = { outer with n_joins = 4; plan_kind = `Arbitrary; seed = 6 } in
  let inner_runs = ref [] in
  let q, data, plan = build outer in
  let nested =
    outcome (fun ~on_step ~on_row ->
        let first_row = ref true in
        Executor.run ?max_rows:outer.cap q ~data plan
          ~on_step:(fun s ->
            inner_runs := columnar inner :: !inner_runs;
            on_step s)
          ~on_row:(fun row ->
            if !first_row then inner_runs := columnar inner :: !inner_runs;
            first_row := false;
            on_row row))
  in
  Alcotest.(check bool) "outer run completed" true (Result.is_ok (fst nested));
  Alcotest.(check bool) "outer run has rows" true
    (match fst nested with Ok (_, rows) -> rows <> [] | Error _ -> false);
  Alcotest.(check bool) "outer run equals the oracle" true (nested = reference outer);
  Alcotest.(check int) "one inner run per step and one in the rows" (Array.length plan)
    (List.length !inner_runs);
  List.iter
    (fun r -> Alcotest.(check bool) "inner run equals the oracle" true (r = reference inner))
    !inner_runs

(* One large execution must not leave its scratch behind: after it, the
   domain keeps at most 2^20 words (the bound [executor.mli] states). *)
let test_scratch_released () =
  let relations =
    Array.init 3 (fun id -> Helpers.rel ~id ~card:(if id = 2 then 1000 else 20) ~distinct:1.0 ())
  in
  (* No predicates: every step is a cross product, 20 * 20 * 1000 rows. *)
  let q = Query.make ~relations ~graph:(Join_graph.make ~n:3 []) in
  let data = data_for q in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  (* On a fresh domain, so no earlier test's scratch is in the baseline. *)
  let rows, grown =
    Domain.join
      (Domain.spawn (fun () ->
           (match Executor.run ~max_rows:5 q ~data [| 0; 1; 2 |] with
           | _ -> Alcotest.fail "expected Result_too_large"
           | exception Executor.Result_too_large _ -> ());
           let before = live () in
           let rows = (Executor.run q ~data [| 0; 1; 2 |]).row_count in
           (rows, live () - before)))
  in
  Alcotest.(check int) "all rows" (20 * 20 * 1000) rows;
  if grown > (1 lsl 20) + 65_536 then
    Alcotest.failf "a run left %d words of scratch behind" grown

(* Allocation contract of a run, on the [exec:feedback-mix] micro kernel's
   batch: default-spec queries at N = 3..6, four of each, their IAI plans,
   each run under a 10,000-row cap (some overflow it).  The workspace is
   reused across runs and the result is counts only, so once warm a run
   allocates only its per-plan bookkeeping (positions, each step's arrays
   of placed predicates, the step statistics and the result) or the
   exception it raises: 2,502 words over the batch, about 156 per plan, whatever the
   row count.  The count is exact on one domain, and a run that gains an
   allocation fails it. *)
let test_run_allocation () =
  let batch =
    List.concat_map
      (fun n_joins ->
        List.init 4 (fun k ->
            let rng = Ljqo_stats.Rng.create ((100 * n_joins) + k) in
            let q = Benchmark.generate_query Benchmark.default ~n_joins ~rng in
            let data = Relation_data.generate_all q ~rng:(Ljqo_stats.Rng.split rng) in
            let ticks = Ljqo_core.Optimizer.time_limit_ticks ~t_factor:1.0 ~query:q () in
            let plan =
              (Ljqo_core.Optimizer.optimize ~method_:Ljqo_core.Methods.IAI
                 ~model:Helpers.memory_model ~ticks ~seed:k q)
                .plan
            in
            (q, data, plan)))
      [ 3; 4; 5; 6 ]
  in
  let run_batch () =
    List.iter
      (fun (q, data, plan) ->
        match Executor.run ~max_rows:10_000 q ~data plan with
        | r -> ignore (Sys.opaque_identity r)
        | exception Executor.Result_too_large _ -> ())
      batch
  in
  (* On a fresh domain: the workspace earlier tests left on this one may
     pass 2^20 words during the batch, be dropped and be regrown inside the
     count.  Backtraces are recorded, as the test runner does on this
     domain, since a truncated run copies its backtrace. *)
  let words =
    Domain.join
      (Domain.spawn (fun () ->
           Printexc.record_backtrace true;
           Helpers.minor_words_per_call run_batch))
  in
  if words <> 2_502.0 then
    Alcotest.failf "Executor.run: %.1f minor words over the 16 plans, not 2,502" words

let suite =
  [
    Alcotest.test_case "data matches statistics" `Quick test_data_matches_stats;
    Alcotest.test_case "hash join matches oracle" `Quick test_hash_join_matches_oracle;
    Alcotest.test_case "cross product size" `Quick test_cross_product_size;
    Alcotest.test_case "result too large" `Quick test_result_too_large;
    Alcotest.test_case "cardinalities shape" `Quick test_cardinalities_shape;
    Alcotest.test_case "input validation" `Quick test_input_validation;
    Alcotest.test_case "single join expectation" `Slow test_single_join_expectation;
    Alcotest.test_case "final size order-invariant" `Quick
      test_plan_order_preserves_final_size;
    prop_hash_equals_oracle;
    prop_run_equals_reference;
    Alcotest.test_case "jobs=2 equals sequential" `Quick test_parallel_equals_sequential;
    Alcotest.test_case "probe counter counts completed steps" `Quick test_probe_counter;
    Alcotest.test_case "nested run keeps its own scratch" `Quick test_nested_run;
    Alcotest.test_case "scratch released after a large run" `Quick test_scratch_released;
    Alcotest.test_case "run allocation on the feedback mix" `Quick test_run_allocation;
  ]

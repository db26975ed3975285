open Ljqo_core

let mem = Helpers.memory_model

let test_connected_query () =
  let q = Helpers.random_query ~n_joins:8 111 in
  let r = Optimizer.optimize ~method_:Methods.IAI ~model:mem ~ticks:50_000 ~seed:1 q in
  Alcotest.(check bool) "valid plan" true (Plan.is_valid q r.plan);
  Helpers.check_approx "cost matches plan"
    (Ljqo_cost.Plan_cost.total mem q r.plan)
    r.cost;
  Alcotest.(check bool) "cost >= lower bound" true (r.cost >= r.lower_bound -. 1e-9)

let test_single_relation () =
  let relations = [| Helpers.rel ~id:0 ~card:10 ~distinct:0.5 () |] in
  let q =
    Ljqo_catalog.Query.make ~relations ~graph:(Ljqo_catalog.Join_graph.make ~n:1 [])
  in
  let r = Optimizer.optimize ~method_:Methods.II ~model:mem ~ticks:100 ~seed:1 q in
  Alcotest.(check (array int)) "trivial plan" [| 0 |] r.plan;
  Alcotest.(check bool) "converged" true r.converged

let test_ticks_validation () =
  let q = Helpers.chain3 () in
  match Optimizer.optimize ~method_:Methods.II ~model:mem ~ticks:0 ~seed:1 q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero budget accepted"

let test_disconnected_query () =
  let q = Helpers.disconnected () in
  let r = Optimizer.optimize ~method_:Methods.II ~model:mem ~ticks:10_000 ~seed:1 q in
  Alcotest.(check bool) "plan is a permutation" true (Plan.is_permutation r.plan);
  Alcotest.(check int) "full length" 3 (Array.length r.plan);
  Helpers.check_approx "cost evaluated on full query"
    (Ljqo_cost.Plan_cost.total mem q r.plan)
    r.cost;
  (* cross products postponed: the singleton component (C) comes last or
     first depending on result sizes, but A-B must stay adjacent *)
  let pos = Plan.inverse r.plan in
  Alcotest.(check int) "A next to B" 1 (abs (pos.(0) - pos.(1)))

let test_checkpoints_monotone () =
  let q = Helpers.random_query ~n_joins:10 112 in
  let ticks = 100_000 in
  let checkpoints = [ 1000; 10_000; 50_000; 100_000 ] in
  let r =
    Optimizer.optimize ~checkpoints ~method_:Methods.IAI ~model:mem ~ticks ~seed:2 q
  in
  Alcotest.(check int) "all checkpoints present" 4 (List.length r.checkpoints);
  let costs = List.map snd r.checkpoints in
  let rec nonincreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && nonincreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone improvement" true (nonincreasing costs);
  (* the final checkpoint snapshot may precede the very last improvement *)
  Alcotest.(check bool) "last checkpoint >= final cost" true
    (List.nth costs 3 >= r.cost -. 1e-9)

let test_deterministic () =
  let q = Helpers.random_query ~n_joins:8 113 in
  let run seed =
    (Optimizer.optimize ~method_:Methods.AGI ~model:mem ~ticks:30_000 ~seed q).cost
  in
  Helpers.check_approx "same seed same result" (run 5) (run 5);
  ignore (run 6)

let test_time_limit_ticks () =
  let q = Helpers.random_query ~n_joins:10 114 in
  Alcotest.(check int) "9N^2 default"
    (Budget.ticks_for_limit ~t_factor:9.0 ~n_joins:10 ())
    (Optimizer.time_limit_ticks ~t_factor:9.0 ~query:q ())

let test_more_time_no_worse () =
  let q = Helpers.random_query ~n_joins:12 115 in
  let cost ticks =
    (Optimizer.optimize ~method_:Methods.II ~model:mem ~ticks ~seed:7 q).cost
  in
  Alcotest.(check bool) "10x budget helps or ties" true
    (cost 200_000 <= cost 20_000 +. 1e-9)

let test_deadline_salvages_incumbent () =
  let q = Helpers.random_query ~n_joins:8 116 in
  (* every clock read advances a tenth of a second, so the deadline fires a
     few strided checks in — after enough charges to evaluate some plans
     (the first charge also reads the clock, so a full-second step would
     kill the run before any plan exists) *)
  let now = ref 0.0 in
  let clock () =
    now := !now +. 0.1;
    !now
  in
  let r =
    Optimizer.optimize ~method_:Methods.II ~model:mem ~ticks:100_000_000
      ~deadline:0.5 ~clock ~seed:1 q
  in
  Alcotest.(check bool) "timed out" true r.timed_out;
  Alcotest.(check bool) "incumbent is a valid plan" true (Plan.is_valid q r.plan);
  Alcotest.(check bool) "stopped far before the tick limit" true
    (r.ticks_used < 1_000_000)

(* Adversarial statistics: empty and single-tuple relations, constant and
   all-distinct columns, impossible and vacuous predicates, disconnected
   graphs, single relations.  The optimizer must return a valid plan with a
   finite cost on all of them, under every method. *)
let adversarial_query seed =
  let open Ljqo_catalog in
  let rng = Ljqo_stats.Rng.create seed in
  let n = 1 + Ljqo_stats.Rng.int rng 7 in
  let extreme rng =
    match Ljqo_stats.Rng.int rng 4 with
    | 0 -> 0.0
    | 1 -> 1.0
    | _ -> Ljqo_stats.Rng.float rng 1.0
  in
  let relations =
    Array.init n (fun id ->
        let card =
          match Ljqo_stats.Rng.int rng 4 with
          | 0 -> 0
          | 1 -> 1
          | _ -> Ljqo_stats.Rng.int rng 10_000
        in
        let selections = if Ljqo_stats.Rng.bool rng then [ extreme rng ] else [] in
        Helpers.rel ~id ~card ~distinct:(extreme rng) ~selections ())
  in
  let edges = ref [] in
  for i = 1 to n - 1 do
    (* drop spanning edges sometimes: disconnected graphs included *)
    if Ljqo_stats.Rng.bernoulli rng 0.75 then
      edges :=
        {
          Join_graph.u = Ljqo_stats.Rng.int rng i;
          v = i;
          selectivity = extreme rng;
        }
        :: !edges
  done;
  Query.make ~relations ~graph:(Join_graph.make ~n !edges)

let prop_adversarial_stats_never_raise =
  Helpers.qcheck_case ~count:40
    ~name:"optimize survives adversarial catalog statistics"
    (fun (qseed, midx) ->
      let q = adversarial_query qseed in
      let m = List.nth Methods.all (abs midx mod List.length Methods.all) in
      let r = Optimizer.optimize ~method_:m ~model:mem ~ticks:5_000 ~seed:qseed q in
      (* cross products are unavoidable on disconnected graphs, where
         [is_valid]'s no-cross-product prefix condition cannot hold *)
      let well_formed =
        if Ljqo_catalog.Join_graph.is_connected (Ljqo_catalog.Query.graph q) then
          Plan.is_valid q r.plan
        else
          Plan.is_permutation r.plan
          && Array.length r.plan = Ljqo_catalog.Query.n_relations q
      in
      well_formed && Float.is_finite r.cost && r.cost >= 0.0)
    QCheck.(pair small_int small_int)

let prop_valid_plans_all_methods =
  Helpers.qcheck_case ~count:20 ~name:"optimize always returns a valid full plan"
    (fun (qseed, midx) ->
      let q = Helpers.random_query ~n_joins:7 qseed in
      let m = List.nth Methods.all (abs midx mod List.length Methods.all) in
      let r = Optimizer.optimize ~method_:m ~model:mem ~ticks:20_000 ~seed:qseed q in
      Plan.is_valid q r.plan && r.cost >= r.lower_bound -. 1e-9)
    QCheck.(pair small_int small_int)

(* A budget can run out before the method records its first plan.  Every
   selectable method must still return a valid plan under any positive
   budget, raise nothing, and keep [ticks_used] within the
   bound [optimizer.mli] states: [ticks - 1 + c + f], with [c] the largest
   single charge ([max n e], or one portfolio barrier) and [f <= n] for the
   fallback plan.  Budgets run from 1 to 2 n^2 ticks; every method records
   its first plan well inside that (the KBZ-seeded ones, the last, by about
   0.4 n^2 on these queries). *)
let prop_tiny_budgets_return_a_plan =
  Helpers.qcheck_case ~count:60
    ~name:"any positive budget returns a valid plan within the tick bound"
    (fun (qseed, size, raw_ticks) ->
      let q = Helpers.random_query ~n_joins:(1 + (abs size mod 50)) qseed in
      let n = Ljqo_catalog.Query.n_relations q in
      let e = Ljqo_catalog.Join_graph.n_edges (Ljqo_catalog.Query.graph q) in
      let ticks = 1 + (abs raw_ticks mod (2 * n * n)) in
      let p = Methods.default_config.portfolio_params in
      List.for_all
        (fun m ->
          let c =
            match m with
            | Methods.Portfolio ->
              let r = max 1 (ticks / (p.width * p.rounds)) in
              p.width * (r - 1 + max n e)
            | _ -> max n e
          in
          match Optimizer.optimize ~method_:m ~model:mem ~ticks ~seed:qseed q with
          | r ->
            Plan.is_valid q r.plan
            && r.cost = Ljqo_cost.Plan_cost.total mem q r.plan
            && r.ticks_used <= ticks - 1 + c + n
            || QCheck.Test.fail_reportf "%s at %d ticks (n = %d): ticks_used %d"
                 (Methods.name m) ticks n r.ticks_used
          | exception ex ->
            QCheck.Test.fail_reportf "%s at %d ticks (n = %d) raised %s"
              (Methods.name m) ticks n (Printexc.to_string ex))
        Methods.selectable)
    QCheck.(triple small_int small_int int)

(* A calibration is an input of one call, not process state: two runs with
   different calibrations, one of them on a second domain, give the plans,
   costs and ticks of the same two runs made one after the other. *)
let prop_concurrent_calibrations =
  let calibrations =
    [|
      None;
      Some { Ljqo_cost.Plan_cost.sel_factor = 0.37 };
      Some { Ljqo_cost.Plan_cost.sel_factor = 3.1 };
    |]
  in
  let methods = [| Methods.IAI; Methods.AGI; Methods.SA; Methods.Portfolio |] in
  Helpers.qcheck_case ~count:20
    ~name:"concurrent optimize calls with different calibrations = sequential"
    (fun (qseed, size, (c, shift), (m1, m2)) ->
      let q = Helpers.random_query ~n_joins:(1 + (abs size mod 49)) qseed in
      let ticks = Optimizer.time_limit_ticks ~t_factor:0.5 ~query:q () in
      let call c m () =
        let r =
          Optimizer.optimize ?calibration:calibrations.(c) ~method_:methods.(abs m mod 4)
            ~model:mem ~ticks ~seed:qseed q
        in
        (r.plan, Printf.sprintf "%h" r.cost, r.ticks_used)
      in
      let c1 = abs c mod 3 in
      let a = call c1 m1 and b = call ((c1 + 1 + (abs shift mod 2)) mod 3) m2 in
      let sequential = (a (), b ()) in
      let other = Domain.spawn b in
      let first = a () in
      sequential = (first, Domain.join other))
    QCheck.(
      quad small_int small_int (pair small_int small_int) (pair small_int small_int))

let suite =
  [
    Alcotest.test_case "connected query" `Quick test_connected_query;
    Alcotest.test_case "single relation" `Quick test_single_relation;
    Alcotest.test_case "ticks validation" `Quick test_ticks_validation;
    Alcotest.test_case "disconnected query" `Quick test_disconnected_query;
    Alcotest.test_case "checkpoints monotone" `Quick test_checkpoints_monotone;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "time_limit_ticks" `Quick test_time_limit_ticks;
    Alcotest.test_case "more time never hurts" `Quick test_more_time_no_worse;
    Alcotest.test_case "deadline salvages the incumbent" `Quick
      test_deadline_salvages_incumbent;
    prop_adversarial_stats_never_raise;
    prop_valid_plans_all_methods;
    prop_tiny_budgets_return_a_plan;
    prop_concurrent_calibrations;
  ]

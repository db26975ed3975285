(* Portfolio racing: determinism across job counts, equivalence with a
   sequential best-of-replicates oracle, and parameter validation.

   The determinism claim is the strong one: for a fixed seed the outcome is
   bit-identical whatever [Parallel.set_jobs] says, because every leg input
   is a pure function of (seed, replicate index, round, previous-barrier
   incumbent) and barrier folds happen in replicate order on the calling
   domain.  [Parallel.map_array] only decides domain placement. *)

open Ljqo_core

let mem = Helpers.memory_model
let ii_params = Methods.default_config.ii_params
let sa_params = Methods.default_config.sa_params

let fresh_ev ?(ticks = 40_000) qseed =
  let q = Helpers.random_query ~n_joins:9 qseed in
  Evaluator.create ~query:q ~model:mem ~ticks ()

let run_portfolio ?params ~qseed ~seed () =
  let ev = fresh_ev qseed in
  (try
     Portfolio.run ?params ~ii_params ~sa_params ev (Ljqo_stats.Rng.create seed)
   with Budget.Exhausted | Evaluator.Converged -> ());
  (Evaluator.best ev, Evaluator.used ev)

let test_bit_identical_across_jobs () =
  let reference = run_portfolio ~qseed:11 ~seed:7 () in
  List.iter
    (fun jobs ->
      let got = Helpers.with_jobs jobs (run_portfolio ~qseed:11 ~seed:7) in
      if got <> reference then
        Alcotest.failf "outcome differs between --jobs 1 and --jobs %d" jobs)
    [ 2; 4 ]

(* Sequential oracle: the same rounds/exchange protocol, replicates run
   one after another with [Array.map] instead of [Parallel.map_array].
   The racing implementation must reproduce it bit-for-bit. *)
let oracle ~params ~qseed ~seed () =
  let ev = fresh_ev qseed in
  let rng = Ljqo_stats.Rng.create seed in
  let query = Evaluator.query ev and model = Evaluator.model ev in
  let epsilon = Evaluator.epsilon ev in
  let initial = Option.get (Evaluator.remaining ev) in
  let round_ticks =
    max 1 (initial / (params.Portfolio.width * params.Portfolio.rounds))
  in
  let legs = Array.of_list params.Portfolio.legs in
  let rngs =
    Array.init params.Portfolio.width (fun i -> Ljqo_stats.Rng.split_at rng i)
  in
  let incumbent = ref None in
  (try
     for _ = 0 to params.Portfolio.rounds - 1 do
       let results =
         Array.init params.Portfolio.width (fun i ->
             let sub_ev =
               Evaluator.create ~epsilon ~query ~model ~ticks:round_ticks ()
             in
             let rng = rngs.(i) in
             let start = !incumbent in
             (try
                match legs.(i mod Array.length legs) with
                | Portfolio.II ->
                  Iterative_improvement.run ~params:ii_params ?start sub_ev rng
                    ~starts:(fun () ->
                      Some (Random_plan.generate_charged sub_ev rng))
                | Portfolio.SA ->
                  let start =
                    match start with
                    | Some s -> s
                    | None -> Random_plan.generate_charged sub_ev rng
                  in
                  Simulated_annealing.run ~params:sa_params sub_ev rng ~start
                    ~restarts:(fun () ->
                      Some (Random_plan.generate_charged sub_ev rng))
                | Portfolio.Two_phase ->
                  let params =
                    { Two_phase.default_params with ii_params; sa_params }
                  in
                  Two_phase.run ~params ?start sub_ev rng
              with Budget.Exhausted | Evaluator.Converged -> ());
             (Evaluator.best sub_ev, Evaluator.used sub_ev))
       in
       let spent = ref 0 in
       Array.iter
         (fun (best, used) ->
           spent := !spent + used;
           match best with
           | Some (cost, plan) -> Evaluator.record ev plan cost
           | None -> ())
         results;
       Evaluator.charge ev !spent;
       match Evaluator.best ev with
       | Some (_, plan) -> incumbent := Some plan
       | None -> ()
     done
   with Budget.Exhausted | Evaluator.Converged -> ());
  (Evaluator.best ev, Evaluator.used ev)

let test_matches_sequential_oracle () =
  List.iter
    (fun (qseed, seed) ->
      let params = Portfolio.default_params in
      let racing = run_portfolio ~params ~qseed ~seed () in
      let expected = oracle ~params ~qseed ~seed () in
      if racing <> expected then
        Alcotest.failf "portfolio differs from sequential oracle (qseed %d)"
          qseed)
    [ (3, 1); (5, 2); (21, 9) ]

let test_improves_or_matches_start () =
  let ev = fresh_ev 13 in
  let rng = Ljqo_stats.Rng.create 4 in
  let start = Helpers.valid_random_plan (Evaluator.query ev) 99 in
  let start_cost =
    Ljqo_cost.Plan_cost.total mem (Evaluator.query ev) start
  in
  (try Portfolio.run ~ii_params ~sa_params ~start ev rng
   with Budget.Exhausted | Evaluator.Converged -> ());
  match Evaluator.best ev with
  | None -> Alcotest.fail "portfolio produced no plan"
  | Some (cost, _) ->
    Alcotest.(check bool)
      "no worse than the warm start" true
      (cost <= start_cost)

let test_validates_params () =
  let check_invalid name params =
    let ev = fresh_ev 2 in
    match
      Portfolio.run ~params ~ii_params ~sa_params ev (Ljqo_stats.Rng.create 1)
    with
    | () -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  check_invalid "width 0" { Portfolio.default_params with width = 0 };
  check_invalid "rounds 0" { Portfolio.default_params with rounds = 0 };
  check_invalid "no legs" { Portfolio.default_params with legs = [] };
  (* unlimited budget: legs would never reach a barrier *)
  let ev = fresh_ev ~ticks:0 3 in
  match Portfolio.run ~ii_params ~sa_params ev (Ljqo_stats.Rng.create 1) with
  | () -> Alcotest.fail "unlimited budget accepted"
  | exception Invalid_argument _ -> ()

let test_leg_names_round_trip () =
  List.iter
    (fun (name, leg) ->
      match Portfolio.leg_of_name name with
      | Some l when l = leg -> ()
      | _ -> Alcotest.failf "leg %s does not parse" name)
    [ ("II", Portfolio.II); ("sa", Portfolio.SA); ("2PO", Portfolio.Two_phase) ];
  Alcotest.(check bool)
    "unknown leg rejected" true
    (Portfolio.leg_of_name "DP" = None)

let test_method_dispatch () =
  (* [Methods.run Portfolio] must go through the same code path and leave a
     valid incumbent. *)
  let ev = fresh_ev 17 in
  Methods.run Methods.Portfolio ev (Ljqo_stats.Rng.create 5);
  match Evaluator.best ev with
  | None -> Alcotest.fail "no incumbent"
  | Some (_, plan) ->
    Alcotest.(check bool)
      "incumbent is a valid plan" true
      (Plan.is_valid (Evaluator.query ev) plan)

let suite =
  [
    Alcotest.test_case "bit-identical across --jobs 1/2/4" `Quick
      test_bit_identical_across_jobs;
    Alcotest.test_case "matches sequential best-of-replicates oracle" `Quick
      test_matches_sequential_oracle;
    Alcotest.test_case "warm start never made worse" `Quick
      test_improves_or_matches_start;
    Alcotest.test_case "parameter validation" `Quick test_validates_params;
    Alcotest.test_case "leg names round-trip" `Quick test_leg_names_round_trip;
    Alcotest.test_case "Methods.run dispatch" `Quick test_method_dispatch;
  ]

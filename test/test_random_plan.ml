open Ljqo_core

let test_valid_on_chain () =
  let q = Helpers.chain3 () in
  for seed = 1 to 50 do
    let p = Random_plan.generate (Ljqo_stats.Rng.create seed) q in
    Alcotest.(check bool) "valid" true (Plan.is_valid q p)
  done

let test_rejects_disconnected () =
  let q = Helpers.disconnected () in
  match Random_plan.generate (Ljqo_stats.Rng.create 1) q with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected query accepted"

let test_covers_start_relations () =
  (* Every relation should appear first in some generated plan. *)
  let q = Helpers.triangle () in
  let seen = Array.make 3 false in
  for seed = 1 to 200 do
    let p = Random_plan.generate (Ljqo_stats.Rng.create seed) q in
    seen.(p.(0)) <- true
  done;
  Array.iteri
    (fun i s -> Alcotest.(check bool) (Printf.sprintf "relation %d first" i) true s)
    seen

let test_charged_version () =
  let q = Helpers.chain3 () in
  let ev =
    Evaluator.create ~query:q ~model:Helpers.memory_model ~ticks:1000 ()
  in
  let before = Evaluator.used ev in
  ignore (Random_plan.generate_charged ev (Ljqo_stats.Rng.create 1));
  Alcotest.(check int) "charges n ticks" 3 (Evaluator.used ev - before)

let prop_always_valid =
  Helpers.qcheck_case ~count:80 ~name:"random plans are always valid"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:10 qseed in
      let p = Random_plan.generate (Ljqo_stats.Rng.create pseed) q in
      Plan.is_valid q p)
    QCheck.(pair small_int small_int)

let prop_matches_reference =
  Helpers.qcheck_case ~count:60
    ~name:"mask generator equals the array-marking reference"
    (fun (qseed, pseed) ->
      let q = Helpers.random_query ~n_joins:(2 + (qseed mod 14)) (500 + qseed) in
      Random_plan.generate (Ljqo_stats.Rng.create pseed) q
      = Random_plan_reference.generate (Ljqo_stats.Rng.create pseed) q)
    QCheck.(pair small_int small_int)

(* Past the inline width the generator switches to the scratch-word form,
   which must still replicate the reference's candidate-array evolution:
   identical RNG states, identical plans. *)
let prop_wide_matches_reference =
  Helpers.qcheck_case ~count:15
    ~name:"wide generator equals the array-marking reference (n > 126)"
    (fun (qseed, pseed) ->
      let n_joins = 127 + (qseed mod 30) in
      let q = Helpers.random_query ~n_joins (520 + qseed) in
      let p = Random_plan.generate (Ljqo_stats.Rng.create pseed) q in
      p = Random_plan_reference.generate (Ljqo_stats.Rng.create pseed) q
      && Plan.is_valid q p)
    QCheck.(pair small_int small_int)

let prop_deterministic =
  Helpers.qcheck_case ~count:30 ~name:"same seed, same plan"
    (fun seed ->
      let q = Helpers.random_query ~n_joins:8 7 in
      Random_plan.generate (Ljqo_stats.Rng.create seed) q
      = Random_plan.generate (Ljqo_stats.Rng.create seed) q)
    QCheck.small_int

let suite =
  [
    Alcotest.test_case "valid on chain" `Quick test_valid_on_chain;
    Alcotest.test_case "rejects disconnected" `Quick test_rejects_disconnected;
    Alcotest.test_case "covers start relations" `Quick test_covers_start_relations;
    Alcotest.test_case "charged version" `Quick test_charged_version;
    prop_always_valid;
    prop_matches_reference;
    prop_wide_matches_reference;
    prop_deterministic;
  ]

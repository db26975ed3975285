(* The search state through the one protocol that changes it: candidates
   are evaluated by [Neighborhood] and only an accepted one is installed. *)

open Ljqo_core
open Ljqo_cost

let mem = Helpers.memory_model

let make_state ?(n_joins = 8) ~qseed ~pseed () =
  let q = Helpers.random_query ~n_joins qseed in
  let ev = Evaluator.create ~query:q ~model:mem ~ticks:10_000_000 () in
  let plan = Helpers.valid_random_plan q pseed in
  (q, Search_state.init ev plan)

let chain3_state () =
  let q = Helpers.chain3 () in
  let ev = Evaluator.create ~query:q ~model:mem ~ticks:100000 () in
  let st = Search_state.init ev [| 0; 1; 2 |] in
  (q, ev, st, Neighborhood.create st)

let test_init_cost_matches () =
  let q, st = make_state ~qseed:1 ~pseed:2 () in
  Helpers.check_approx "init cost" (Plan_cost.total mem q (Search_state.perm st))
    (Search_state.cost st)

let test_reject_restores () =
  let q, st = make_state ~qseed:3 ~pseed:4 () in
  let nb = Neighborhood.create st in
  let perm0 = Search_state.perm st in
  let cost0 = Search_state.cost st in
  let rng = Ljqo_stats.Rng.create 5 in
  let n = Search_state.n st in
  for _ = 1 to 200 do
    let m = Move.random rng ~n in
    match Neighborhood.consider nb m with
    | None -> ()
    | Some _ -> Neighborhood.reject nb
  done;
  Alcotest.(check (array int)) "perm restored" perm0 (Search_state.perm st);
  Helpers.check_approx "cost restored" cost0 (Search_state.cost st);
  Helpers.check_approx "cost still consistent"
    (Plan_cost.total mem q (Search_state.perm st))
    (Search_state.cost st)

let test_accepted_moves_stay_consistent () =
  let q, st = make_state ~qseed:6 ~pseed:7 () in
  let nb = Neighborhood.create st in
  let rng = Ljqo_stats.Rng.create 8 in
  let n = Search_state.n st in
  for _ = 1 to 300 do
    let m = Move.random rng ~n in
    match Neighborhood.consider nb m with
    | None -> ()
    | Some total ->
      if Ljqo_stats.Rng.bool rng then begin
        (* keep: the state's cost must match an independent full eval *)
        Neighborhood.accept nb;
        Helpers.check_approx ~rel:1e-6 "incremental total matches full eval"
          (Plan_cost.total mem q (Search_state.perm st))
          total
      end
      else Neighborhood.reject nb
  done;
  Alcotest.(check bool) "perm still a valid plan" true
    (Plan.is_valid q (Search_state.perm st))

let test_invalid_moves_rejected () =
  (* chain3 from (A B C): swapping A and B keeps validity; swapping B and C
     leaves A followed by C, a cross product. *)
  let q, _, st, nb = chain3_state () in
  (match Neighborhood.consider nb (Move.Swap (0, 1)) with
  | Some _ -> Neighborhood.reject nb
  | None -> Alcotest.fail "A<->B swap keeps validity; must be accepted");
  match Neighborhood.consider nb (Move.Swap (1, 2)) with
  | None ->
    Alcotest.(check (array int)) "state untouched after rejection" [| 0; 1; 2 |]
      (Search_state.perm st);
    Helpers.check_approx "cost untouched after rejection"
      (Plan_cost.total mem q [| 0; 1; 2 |])
      (Search_state.cost st)
  | Some _ -> Alcotest.fail "cross-product move accepted"

let test_consider_rewrite () =
  let q, _, st, nb = chain3_state () in
  (match Neighborhood.consider_rewrite nb ~lo:0 ~rels:[| 1; 0 |] with
  | Some total ->
    Helpers.check_approx "rewritten cost" (Plan_cost.total mem q [| 1; 0; 2 |]) total;
    Neighborhood.reject nb
  | None -> Alcotest.fail "valid rewrite rejected");
  (* a rewrite introducing a cross product ([0; 2; 1] starts with the A><C
     cross) must be rejected with the state untouched *)
  match Neighborhood.consider_rewrite nb ~lo:1 ~rels:[| 2; 1 |] with
  | None ->
    Alcotest.(check (array int)) "state untouched after rejection" [| 0; 1; 2 |]
      (Search_state.perm st)
  | Some _ -> Alcotest.fail "invalid rewrite accepted"

let test_charges_recost_ticks () =
  let _, ev, _, nb = chain3_state () in
  let before = Evaluator.used ev in
  (match Neighborhood.consider nb (Move.Swap (0, 1)) with
  | Some _ -> Neighborhood.reject nb
  | None -> Alcotest.fail "move rejected");
  (* a change at position 0 of a 3-plan recosts steps 1 and 2 *)
  Alcotest.(check int) "two ticks" 2 (Evaluator.used ev - before);
  (* a rewrite is charged the same way, valid or not: from position 1 on *)
  ignore (Neighborhood.consider_rewrite nb ~lo:1 ~rels:[| 2; 1 |]);
  Alcotest.(check int) "two more ticks" 4 (Evaluator.used ev - before)

let test_commit_updates_incumbent () =
  let q, ev, st, nb = chain3_state () in
  (match Neighborhood.consider_rewrite nb ~lo:0 ~rels:[| 2; 1; 0 |] with
  | Some _ ->
    Neighborhood.accept nb;
    Search_state.commit st
  | None -> Alcotest.fail "rewrite rejected");
  Helpers.check_approx "incumbent updated" (Plan_cost.total mem q [| 2; 1; 0 |])
    (Evaluator.best_cost ev)

let prop_move_sequences_consistent =
  Helpers.qcheck_case ~count:30 ~name:"arbitrary accepted-move sequences stay consistent"
    (fun (qseed, pseed) ->
      let q, st = make_state ~n_joins:6 ~qseed ~pseed:(pseed + 100) () in
      let nb = Neighborhood.create st in
      let rng = Ljqo_stats.Rng.create (qseed + (3 * pseed)) in
      let n = Search_state.n st in
      let ok = ref true in
      for _ = 1 to 60 do
        let m = Move.random rng ~n in
        match Neighborhood.consider nb m with
        | None -> ()
        | Some total ->
          if Ljqo_stats.Rng.bernoulli rng 0.5 then begin
            Neighborhood.accept nb;
            if not (Helpers.approx ~rel:1e-6 total (Plan_cost.total mem q (Search_state.perm st)))
            then ok := false
          end
          else Neighborhood.reject nb
      done;
      !ok && Plan.is_valid q (Search_state.perm st))
    QCheck.(pair small_int small_int)

let suite =
  [
    Alcotest.test_case "init cost matches full eval" `Quick test_init_cost_matches;
    Alcotest.test_case "reject restores exactly" `Quick test_reject_restores;
    Alcotest.test_case "accepted moves stay consistent" `Quick
      test_accepted_moves_stay_consistent;
    Alcotest.test_case "invalid moves rejected" `Quick test_invalid_moves_rejected;
    Alcotest.test_case "consider_rewrite" `Quick test_consider_rewrite;
    Alcotest.test_case "recost tick charging" `Quick test_charges_recost_ticks;
    Alcotest.test_case "commit updates incumbent" `Quick test_commit_updates_incumbent;
    prop_move_sequences_consistent;
  ]

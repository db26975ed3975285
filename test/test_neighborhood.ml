(* The neighbor kernel's bit-identity contract: for any state and any move
   or window rewrite, [Neighborhood.consider]/[consider_rewrite] must return
   exactly what the reference protocol's [try_move]/[try_rewrite] returns
   ([Search_state_reference]: snapshot, mutate, recost to the end,
   rollback), charge the evaluator identically, and an [accept] must leave
   the state bit-identical to the reference's committed state.
   "Bit-identical" is literal: floats are compared with [=], not
   approximately — the kernel reorders no arithmetic. *)

open Ljqo_core
module Ref = Search_state_reference

let mem = Helpers.memory_model

let make_pair ?(n_joins = 8) ~qseed ~pseed () =
  let q = Helpers.random_query ~n_joins qseed in
  let plan = Helpers.valid_random_plan q pseed in
  let ev_f = Evaluator.create ~query:q ~model:mem ~ticks:10_000_000 () in
  let ev_r = Evaluator.create ~query:q ~model:mem ~ticks:10_000_000 () in
  (q, Search_state.init ev_f plan, Ref.init ev_r plan)

let same_verdict = function
  | None, None -> true
  | Some (a : float), Some (b, _) -> a = b
  | _ -> false

(* A state's cached arrays agree with a from-scratch costing by the
   independent oracle, and [psum] is the left-to-right sum of the step costs
   with the plan's cost as its last entry — all bit for bit. *)
let arrays_consistent q model ~perm ~pos ~cards ~steps ~psum ~cost =
  let n = Array.length perm in
  let e = Plan_cost_reference.eval model q perm in
  let ok = ref (Helpers.same_bits psum.(0) 0.0) in
  let acc = ref 0.0 in
  for i = 1 to n - 1 do
    acc := !acc +. steps.(i);
    if not (Helpers.same_bits !acc psum.(i)) then ok := false
  done;
  Array.iteri (fun i r -> if pos.(r) <> i then ok := false) perm;
  !ok
  && Helpers.same_bits cost psum.(n - 1)
  && Helpers.same_bits cost e.total
  && Array.for_all2 Helpers.same_bits e.cards cards
  && Array.for_all2 Helpers.same_bits e.step_costs steps

let state_consistent q model st =
  Search_state.(
    arrays_consistent q model ~perm:(perm_view st) ~pos:(pos_view st)
      ~cards:(cards_view st) ~steps:(step_costs_view st) ~psum:(psum_view st)
      ~cost:(cost st))

let reference_consistent q model st =
  Ref.(
    arrays_consistent q model ~perm:(perm_view st) ~pos:(pos_view st)
      ~cards:(cards_view st) ~steps:(step_costs_view st) ~psum:(psum_view st)
      ~cost:(cost st))

(* Drive both paths through the same random move sequence with the same
   accept/reject coin; every observable — verdict, tick meter, permutation,
   state cost — must stay bit-equal throughout. *)
let prop_fused_matches_reference =
  Helpers.qcheck_case ~count:40
    ~name:"consider/accept/reject bit-identical to try_move protocol"
    (fun (qseed, pseed) ->
      let q, st_f, st_r = make_pair ~qseed ~pseed:(pseed + 17) () in
      let nb = Neighborhood.create st_f in
      let ev_f = Search_state.evaluator st_f in
      let ev_r = Ref.evaluator st_r in
      let rng = Ljqo_stats.Rng.create (qseed + (31 * pseed)) in
      let n = Search_state.n st_f in
      let ok = ref true in
      for _ = 1 to 120 do
        let m = Move.random rng ~n in
        let keep = Ljqo_stats.Rng.bool rng in
        let vf = Neighborhood.consider nb m in
        let vr = Ref.try_move st_r m in
        if not (same_verdict (vf, vr)) then ok := false;
        (match (vf, vr) with
        | Some _, Some (_, snap) ->
          if keep then begin
            Neighborhood.accept nb;
            Search_state.commit st_f;
            Ref.commit st_r
          end
          else begin
            Neighborhood.reject nb;
            Ref.rollback st_r snap
          end
        | _ -> ());
        if Evaluator.used ev_f <> Evaluator.used ev_r then ok := false;
        if Search_state.perm st_f <> Ref.perm st_r then ok := false;
        if not (Search_state.cost st_f = Ref.cost st_r) then ok := false;
        if not (state_consistent q mem st_f && reference_consistent q mem st_r) then
          ok := false
      done;
      !ok
      && Evaluator.best ev_f = Evaluator.best ev_r)
    QCheck.(pair small_int small_int)

(* A random window of the current permutation: [lo], a length in 2..6
   (capped by the plan), and the window's relations shuffled — the identity
   arrangement and cross products included. *)
let random_window rng perm =
  let n = Array.length perm in
  let len = min n (2 + Ljqo_stats.Rng.int rng 5) in
  let lo = Ljqo_stats.Rng.int rng (n - len + 1) in
  let rels = Array.sub perm lo len in
  Ljqo_stats.Rng.shuffle_in_place rng rels;
  (lo, rels)

(* Window rewrites, as local improvement proposes them, on default and
   graph-dense queries of up to 200 joins: after every step the verdict,
   the tick meter, the permutation and the cost agree with [try_rewrite]'s,
   and both states stay consistent with the costing oracle. *)
let prop_rewrite_matches_reference =
  Helpers.qcheck_case ~count:30
    ~name:"consider_rewrite/accept/reject bit-identical to try_rewrite"
    (fun (dense, size, seed) ->
      let rng = Ljqo_stats.Rng.create seed in
      let spec =
        if dense then Helpers.graph_dense else Ljqo_querygen.Benchmark.default
      in
      let q =
        Ljqo_querygen.Benchmark.generate_query spec ~n_joins:(1 + size) ~rng
      in
      let plan = Random_plan.generate rng q in
      let ev_f = Evaluator.create ~query:q ~model:mem ~ticks:0 () in
      let ev_r = Evaluator.create ~query:q ~model:mem ~ticks:0 () in
      let st_f = Search_state.init ev_f plan in
      let st_r = Ref.init ev_r plan in
      let nb = Neighborhood.create st_f in
      let ok = ref true in
      for _ = 1 to 60 do
        let lo, rels = random_window rng (Search_state.perm_view st_f) in
        let keep = Ljqo_stats.Rng.bool rng in
        let vf = Neighborhood.consider_rewrite nb ~lo ~rels in
        let vr = Ref.try_rewrite st_r ~lo ~rels in
        if not (same_verdict (vf, vr)) then ok := false;
        (match (vf, vr) with
        | Some _, Some (_, snap) ->
          if keep then begin
            Neighborhood.accept nb;
            Search_state.commit st_f;
            Ref.commit st_r
          end
          else begin
            Neighborhood.reject nb;
            Ref.rollback st_r snap
          end
        | _ -> ());
        if Evaluator.used ev_f <> Evaluator.used ev_r then ok := false;
        if Search_state.perm_view st_f <> Ref.perm_view st_r then ok := false;
        if not (Search_state.cost st_f = Ref.cost st_r) then ok := false;
        if not (state_consistent q mem st_f && reference_consistent q mem st_r) then
          ok := false
      done;
      !ok && Evaluator.best ev_f = Evaluator.best ev_r)
    QCheck.(triple bool (int_bound 199) int)

(* A 130-relation chain exceeds the two inline bitset words.  Placement is
   read from positions, so the kernel has one path at every width; it must
   honor the same bit-identity contract past 126 relations. *)
let big_chain n =
  let relations =
    Array.init n (fun id ->
        Helpers.rel ~id ~card:(10 + (id mod 37)) ~distinct:0.5 ())
  in
  let edges =
    List.init (n - 1) (fun i ->
        { Ljqo_catalog.Join_graph.u = i; v = i + 1; selectivity = 0.05 })
  in
  Ljqo_catalog.Query.make ~relations
    ~graph:(Ljqo_catalog.Join_graph.make ~n edges)

let test_wide_fused () =
  let q = big_chain 130 in
  let plan = Array.init 130 (fun i -> i) in
  let ev_f = Evaluator.create ~query:q ~model:mem ~ticks:10_000_000 () in
  let ev_r = Evaluator.create ~query:q ~model:mem ~ticks:10_000_000 () in
  let st_f = Search_state.init ev_f plan in
  let st_r = Ref.init ev_r plan in
  let nb = Neighborhood.create st_f in
  for i = 0 to 128 do
    let m = Move.Swap (i, i + 1) in
    let vf = Neighborhood.consider nb m in
    let vr = Ref.try_move st_r m in
    if not (same_verdict (vf, vr)) then
      Alcotest.failf "verdict mismatch at swap %d" i;
    match (vf, vr) with
    | Some _, Some (_, snap) ->
      if i mod 3 = 0 then begin
        Neighborhood.accept nb;
        Search_state.commit st_f;
        Ref.commit st_r
      end
      else begin
        Neighborhood.reject nb;
        Ref.rollback st_r snap
      end
    | _ -> ()
  done;
  Alcotest.(check (array int))
    "permutations agree" (Ref.perm st_r) (Search_state.perm st_f);
  Alcotest.(check bool)
    "costs bit-equal" true
    (Search_state.cost st_f = Ref.cost st_r);
  Alcotest.(check int)
    "tick meters agree" (Evaluator.used ev_r) (Evaluator.used ev_f)

(* Random swaps and inserts on a dense graph of 150 to 200 relations: the
   verdicts, tick meters and states of the kernel and the reference stay
   bit-equal, and both states stay consistent with the oracle. *)
let prop_wide_random_moves =
  Helpers.qcheck_case ~count:6
    ~name:"random moves on graph-dense N = 150..200 bit-identical"
    (fun (size, seed) ->
      let rng = Ljqo_stats.Rng.create seed in
      let q =
        Ljqo_querygen.Benchmark.generate_query Helpers.graph_dense
          ~n_joins:(149 + size) ~rng
      in
      let plan = Random_plan.generate rng q in
      let ev_f = Evaluator.create ~query:q ~model:mem ~ticks:0 () in
      let ev_r = Evaluator.create ~query:q ~model:mem ~ticks:0 () in
      let st_f = Search_state.init ev_f plan in
      let st_r = Ref.init ev_r plan in
      let nb = Neighborhood.create st_f in
      let n = Search_state.n st_f in
      let ok = ref true in
      for _ = 1 to 150 do
        let m = Move.random rng ~n in
        let keep = Ljqo_stats.Rng.int rng 3 = 0 in
        let vf = Neighborhood.consider nb m in
        let vr = Ref.try_move st_r m in
        if not (same_verdict (vf, vr)) then ok := false;
        (match (vf, vr) with
        | Some _, Some (_, snap) ->
          if keep then Neighborhood.accept nb
          else begin
            Neighborhood.reject nb;
            Ref.rollback st_r snap
          end
        | _ -> ());
        if Evaluator.used ev_f <> Evaluator.used ev_r then ok := false;
        if Search_state.perm_view st_f <> Ref.perm_view st_r then
          ok := false;
        if not (state_consistent q mem st_f && reference_consistent q mem st_r) then
          ok := false
      done;
      !ok)
    QCheck.(pair (int_bound 50) int)

(* A cost model that raises mid-walk must leave the state exactly as it was:
   permutation, positions, cards, step costs, partial sums and cost.  The
   raising model ([Chaos.wrap_raising]) is armed only after [init].  Moves
   and window rewrites alternate. *)
let test_raise_leaves_state () =
  let q = Helpers.random_query ~n_joins:30 11 in
  let armed = ref false in
  let raising = Chaos.wrap_raising ~rate:0.3 ~seed:5 mem in
  let model : Ljqo_cost.Cost_model.t =
    (module struct
      let name = "armed-chaos"

      let join_cost ~is_first ~is_cross input =
        if !armed then
          let module R = (val raising : Ljqo_cost.Cost_model.S) in
          R.join_cost ~is_first ~is_cross input
        else Ljqo_cost.Memory_model.join_cost ~is_first ~is_cross input

      let scan_cost = Ljqo_cost.Memory_model.scan_cost

      let output_cost = Ljqo_cost.Memory_model.output_cost
    end)
  in
  let ev = Evaluator.create ~query:q ~model ~ticks:0 () in
  let st = Search_state.init ev (Helpers.valid_random_plan q 4) in
  let nb = Neighborhood.create st in
  let snapshot () =
    ( Array.copy (Search_state.perm_view st),
      Array.copy (Search_state.pos_view st),
      Array.map Int64.bits_of_float (Search_state.cards_view st),
      Array.map Int64.bits_of_float (Search_state.step_costs_view st),
      Array.map Int64.bits_of_float (Search_state.psum_view st),
      Int64.bits_of_float (Search_state.cost st) )
  in
  armed := true;
  let rng = Ljqo_stats.Rng.create 9 in
  let raised = ref 0 and raised_rewrites = ref 0 in
  for k = 1 to 800 do
    let before = snapshot () in
    let what, verdict =
      if k mod 2 = 0 then
        let m = Move.random rng ~n:(Search_state.n st) in
        (Format.asprintf "%a" Move.pp m, fun () -> Neighborhood.consider nb m)
      else
        let lo, rels = random_window rng (Search_state.perm_view st) in
        ( Printf.sprintf "rewrite at %d" lo,
          fun () -> Neighborhood.consider_rewrite nb ~lo ~rels )
    in
    (match verdict () with
    | Some _ -> Neighborhood.reject nb
    | None -> ()
    | exception Chaos.Injected _ ->
      incr raised;
      if k mod 2 = 1 then incr raised_rewrites);
    if snapshot () <> before then Alcotest.failf "state changed by %s" what
  done;
  Alcotest.(check bool) "some considers raised" true (!raised > !raised_rewrites);
  Alcotest.(check bool) "some rewrites raised" true (!raised_rewrites > 0)

(* Allocation contract: a candidate allocates nothing per computed step —
   the cost model reads its inputs from, and writes its cost to, the
   stepper's own flat record — and the 4 words of a valid candidate's
   [Some total], and nothing else, at any degree and width, for a move and
   for a window rewrite alike.  Counted on one domain over a fixed sequence
   of 20,000 consider/reject calls; the model counts the computed steps.
   The stated slack (64 words in all, not per call) covers the
   measurement's own closure and refs; one word per step would exceed it
   by orders of magnitude. *)
let check_allocation label spec ~n_joins ~rewrites =
  let rng = Ljqo_stats.Rng.create 42 in
  let q = Ljqo_querygen.Benchmark.generate_query spec ~n_joins ~rng in
  let calls = ref 0 in
  let ev = Evaluator.create ~query:q ~model:(Helpers.counting_model calls) ~ticks:0 () in
  let st = Search_state.init ev (Random_plan.generate rng q) in
  let nb = Neighborhood.create st in
  (* Every candidate is rejected, so windows drawn from the start state stay
     rearrangements of the state's windows. *)
  let moves =
    Array.init 20_000 (fun _ -> Move.random rng ~n:(Search_state.n st))
  in
  let windows =
    Array.init 20_000 (fun _ -> random_window rng (Search_state.perm_view st))
  in
  let valid = ref 0 in
  let note = function
    | Some _ ->
      incr valid;
      Neighborhood.reject nb
    | None -> ()
  in
  calls := 0;
  let before = Gc.minor_words () in
  if rewrites then
    Array.iter
      (fun (lo, rels) -> note (Neighborhood.consider_rewrite nb ~lo ~rels))
      windows
  else Array.iter (fun m -> note (Neighborhood.consider nb m)) moves;
  let words = Gc.minor_words () -. before in
  let extra = words -. float_of_int (4 * !valid) in
  if extra < 0.0 || extra > 64.0 then
    Alcotest.failf
      "%s: %.0f minor words over %d computed steps and %d valid candidates \
       (%.2f per step); %.0f beyond 4 per valid candidate"
      label words !calls !valid
      (words /. float_of_int !calls)
      extra

let test_consider_allocation () =
  List.iter
    (fun rewrites ->
      let kind = if rewrites then "rewrites" else "moves" in
      check_allocation ("default N=50 " ^ kind) Ljqo_querygen.Benchmark.default
        ~n_joins:50 ~rewrites;
      check_allocation ("graph-dense N=200 " ^ kind) Helpers.graph_dense
        ~n_joins:200 ~rewrites)
    [ false; true ]

let test_pending_protocol_enforced () =
  let q = Helpers.chain3 () in
  let ev = Evaluator.create ~query:q ~model:mem ~ticks:100000 () in
  let st = Search_state.init ev [| 0; 1; 2 |] in
  let nb = Neighborhood.create st in
  (match Neighborhood.consider nb (Move.Swap (0, 1)) with
  | Some _ -> ()
  | None -> Alcotest.fail "valid swap rejected");
  Alcotest.check_raises "second consider while pending"
    (Invalid_argument "Neighborhood.consider: a considered move is still pending")
    (fun () -> ignore (Neighborhood.consider nb (Move.Swap (0, 1))));
  Alcotest.check_raises "rewrite while pending"
    (Invalid_argument "Neighborhood.consider: a considered move is still pending")
    (fun () -> ignore (Neighborhood.consider_rewrite nb ~lo:0 ~rels:[| 1; 0 |]));
  Neighborhood.reject nb;
  Alcotest.check_raises "rewrite past the end"
    (Invalid_argument "Neighborhood.consider_rewrite: window out of range")
    (fun () -> ignore (Neighborhood.consider_rewrite nb ~lo:2 ~rels:[| 2; 1 |]));
  Alcotest.check_raises "accept with nothing pending"
    (Invalid_argument "Neighborhood.accept: no move under consideration")
    (fun () -> Neighborhood.accept nb)

let suite =
  [
    prop_fused_matches_reference;
    prop_rewrite_matches_reference;
    Alcotest.test_case "wide fused path (n = 130)" `Quick test_wide_fused;
    Alcotest.test_case "pending protocol enforced" `Quick
      test_pending_protocol_enforced;
    prop_wide_random_moves;
    Alcotest.test_case "a raising cost model leaves the state untouched" `Quick
      test_raise_leaves_state;
    Alcotest.test_case "consider allocates 64 words in all beyond its Some totals"
      `Quick test_consider_allocation;
  ]

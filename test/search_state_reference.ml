(* The snapshot -> mutate -> recost-to-the-end -> rollback protocol that
   [Search_state] used to evaluate moves and window rewrites with, kept as
   the oracle [Neighborhood.consider]/[consider_rewrite]/[accept]/[reject]
   are tested against.  It owns its own copy of the state arrays: [init]
   costs the start plan like [Search_state.init], and every candidate is
   applied in place, recosted over the whole tail of the plan, and rolled
   back on request.  Ticks are charged as the kernel charges them, so the
   two paths' tick meters must agree call for call. *)

open Ljqo_core
open Ljqo_cost

type t = {
  ev : Evaluator.t;
  stepper : Plan_cost.Stepper.t;
  perm : int array;
  pos : int array;
  cards : float array;
  step_costs : float array;
  psum : float array;
      (* [psum.(i)]: left-to-right sum of [step_costs.(1 .. i)]; [psum.(0)]
         is 0, and the plan's cost is [psum.(n - 1)] *)
}

type snapshot = {
  lo : int;
  hi : int;
  saved_perm : int array;  (* slice [lo, hi) before the mutation *)
  saved_cards : float array;
  saved_step_costs : float array;
}

(* Bring [psum] up to date from position [from >= 1] on.  Each entry is
   rebuilt addition by addition, in the order a full left-to-right resum
   uses, so the total is bit-identical to summing the whole array — never
   by [-. old +. new] deltas, which drift catastrophically when step costs
   span many orders of magnitude.  Past
   [settled], step costs equal the ones [psum] was last summed over, so once
   a rebuilt entry bit-equals the stored one the rest already holds.  (Costs
   are clamped to [0, 1e150], so the sums are never NaN or a negative zero
   and [=] is bit equality.) *)
let refresh_psum t ~from ~settled =
  let psum = t.psum and steps = t.step_costs in
  let n = Array.length psum in
  let k = ref from in
  while !k < n do
    let i = !k in
    let s = Array.unsafe_get psum (i - 1) +. Array.unsafe_get steps i in
    if i >= settled && s = Array.unsafe_get psum i then k := n
    else begin
      Array.unsafe_set psum i s;
      incr k
    end
  done

let init ev start =
  let query = Evaluator.query ev and model = Evaluator.model ev in
  assert (Plan.is_valid query start);
  let perm = Array.copy start in
  let n = Array.length perm in
  Ljqo_obs.Obs.bump Ljqo_obs.Obs.Cost_evals;
  let e = Plan_cost.eval model query perm in
  Evaluator.record ev perm e.total;
  Evaluator.charge ev e.est_steps;
  let t =
    {
      ev;
      stepper = Plan_cost.Stepper.make model query;
      perm;
      pos = Plan.inverse perm;
      cards = e.cards;
      step_costs = e.step_costs;
      psum = Array.make n 0.0;
    }
  in
  refresh_psum t ~from:1 ~settled:n;
  t

let evaluator t = t.ev
let n t = Array.length t.perm
let cost t = t.psum.(Array.length t.psum - 1)
let perm t = Array.copy t.perm
let perm_view t = t.perm
let pos_view t = t.pos
let cards_view t = t.cards
let step_costs_view t = t.step_costs
let psum_view t = t.psum

let take_snapshot t ~lo ~hi =
  {
    lo;
    hi;
    saved_perm = Array.sub t.perm lo (hi - lo);
    saved_cards = Array.sub t.cards lo (hi - lo);
    saved_step_costs = Array.sub t.step_costs lo (hi - lo);
  }

(* Every restored step may differ from what [psum] now holds, so the
   refresh runs to the end. *)
let rollback t snap =
  for k = 0 to snap.hi - snap.lo - 1 do
    let i = snap.lo + k in
    t.perm.(i) <- snap.saved_perm.(k);
    t.pos.(snap.saved_perm.(k)) <- i;
    t.cards.(i) <- snap.saved_cards.(k);
    t.step_costs.(i) <- snap.saved_step_costs.(k)
  done;
  refresh_psum t ~from:(max snap.lo 1) ~settled:(Array.length t.perm)

(* Recost join steps in [max lo 1, hi) through the one step kernel, reading
   placement from the already-mutated [pos]; returns false (leaving arrays
   partly updated — the caller rolls back) if a step became a cross
   product.  Because selectivities are clamped by the running intermediate
   size, [hi] is always the plan length: every step after a change can
   change cost.  The partial sums are refreshed only on success, from the
   first recosted step on. *)
let recost t ~lo ~hi =
  let first = max lo 1 in
  Ljqo_obs.Obs.add Ljqo_obs.Obs.Recost_steps (hi - first);
  Evaluator.charge t.ev (hi - first);
  if lo = 0 then
    t.cards.(0) <-
      (Ljqo_catalog.Query.cardinalities (Evaluator.query t.ev)).(t.perm.(0));
  let k = ref first in
  while
    !k < hi
    && Plan_cost.Stepper.step t.stepper ~price_cross:false ~pos:t.pos
         ~cards:t.cards ~costs:t.step_costs ~k:!k ~r:t.perm.(!k)
  do
    incr k
  done;
  let ok = !k = hi in
  if ok then refresh_psum t ~from:first ~settled:hi;
  ok

let apply_perm_mutation t = function
  | Move.Swap (i, j) ->
    let a = t.perm.(i) and b = t.perm.(j) in
    t.perm.(i) <- b;
    t.perm.(j) <- a;
    t.pos.(b) <- i;
    t.pos.(a) <- j
  | Move.Insert (src, dst) ->
    let moved = t.perm.(src) in
    if src < dst then
      for i = src to dst - 1 do
        t.perm.(i) <- t.perm.(i + 1);
        t.pos.(t.perm.(i)) <- i
      done
    else
      for i = src downto dst + 1 do
        t.perm.(i) <- t.perm.(i - 1);
        t.pos.(t.perm.(i)) <- i
      done;
    t.perm.(dst) <- moved;
    t.pos.(moved) <- dst

let finish_attempt t snap ok =
  if ok then Some (cost t, snap)
  else begin
    rollback t snap;
    None
  end

let try_move t move =
  let lo, _ = Move.affected_range move in
  let hi = Array.length t.perm in
  let snap = take_snapshot t ~lo ~hi in
  apply_perm_mutation t move;
  let ok = recost t ~lo ~hi in
  finish_attempt t snap ok

let try_rewrite t ~lo ~rels =
  let len = Array.length rels in
  assert (lo + len <= Array.length t.perm);
  let hi = Array.length t.perm in
  let snap = take_snapshot t ~lo ~hi in
  Array.iteri
    (fun k r ->
      t.perm.(lo + k) <- r;
      t.pos.(r) <- lo + k)
    rels;
  let ok = recost t ~lo ~hi in
  finish_attempt t snap ok

let commit t = Evaluator.record t.ev t.perm (cost t)

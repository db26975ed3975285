open Ljqo_cost

type t = {
  ev : Evaluator.t;
  perm : int array;
  pos : int array;
  cards : float array;
  step_costs : float array;
  psum : float array;
      (* [psum.(i)]: left-to-right sum of [step_costs.(1 .. i)]; [psum.(0)]
         is 0, and the plan's cost is [psum.(n - 1)] *)
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

(* The permutation and positions already hold the change; write the slots
   it changed — [cards]/[step_costs] on [max lo 1 .. upto - 1] plus
   [cards.(0)] when [lo = 0].  From [upto] on, the recomputed steps equal
   the stored ones, so the stored tail stays in place; only the partial sums
   are refreshed past it, until they meet the stored ones.  No costing, no
   tick charges: those happened when the change was evaluated. *)
let install_evaluated t ~lo ~upto ~cards ~step_costs =
  let first = max lo 1 in
  if lo = 0 then t.cards.(0) <- cards.(0);
  Array.blit cards first t.cards first (upto - first);
  Array.blit step_costs first t.step_costs first (upto - first);
  refresh_psum t ~from:first ~settled:upto

let commit t = Evaluator.record t.ev t.perm (cost t)

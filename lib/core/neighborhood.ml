open Ljqo_cost
module Obs = Ljqo_obs.Obs

(* The neighbor kernel: evaluate a candidate move of a search state without
   keeping any change to it.  The reference protocol
   (snapshot -> mutate -> [Search_state.recost] -> rollback) allocates three
   window slices per attempt, recosts every step to the end of the plan,
   and pays the rollback writes on every rejection — and II/SA reject or
   invalidate most proposals.  Here a candidate costs O(1) to set up: the
   sum over the untouched steps is one read of the state's partial sums,
   and placement is the state's own [pos] array, with the move's window
   applied for the walk and undone before [consider] returns or raises.
   The mutated permutation is read virtually, step costs stream through
   [Plan_cost.Stepper] into preallocated scratch, and the walk stops where
   the intermediate sizes meet the stored ones again.  Only an accepted move
   writes the state ([Search_state.apply_evaluated]).

   Bit-identity contract (enforced by qcheck against the reference): for any
   state and move, [consider] returns exactly what [Search_state.try_move]
   would have returned, charges the same ticks at the same point, and an
   [accept] leaves the state bit-identical to the committed reference state.
   Placement by position works at every graph width, so there is one path. *)

type t = {
  state : Search_state.t;
  stepper : Plan_cost.Stepper.t;
  base_cards : float array;
  scratch_cards : float array;
  scratch_steps : float array;
  (* The pending move, if [pending]: its effect on [max lo 1 .. upto - 1]
     lives in the scratch arrays; from [upto] on it equals the stored
     state.  Mutable fields rather than a variant, so [consider] allocates
     nothing to record it. *)
  mutable pending : bool;
  mutable pending_move : Move.t;
  mutable pending_lo : int;
  mutable pending_upto : int;
}

let create state =
  let ev = Search_state.evaluator state in
  let query = Evaluator.query ev and model = Evaluator.model ev in
  let n = Search_state.n state in
  {
    state;
    stepper = Plan_cost.Stepper.make model query;
    base_cards = Ljqo_catalog.Query.cardinalities query;
    scratch_cards = Array.make (max n 1) 0.0;
    scratch_steps = Array.make (max n 1) 0.0;
    pending = false;
    pending_move = Move.Swap (0, 0);
    pending_lo = 0;
    pending_upto = 0;
  }

let state t = t.state

(* Read position [k] of the permutation as it would be after [move], without
   applying it.  Positions outside the affected window fall through to the
   plain read. *)
let[@inline] vperm perm move k =
  match move with
  | Move.Swap (i, j) ->
    if k = i then Array.unsafe_get perm j
    else if k = j then Array.unsafe_get perm i
    else Array.unsafe_get perm k
  | Move.Insert (src, dst) ->
    if src < dst then
      if k < src || k > dst then Array.unsafe_get perm k
      else if k = dst then Array.unsafe_get perm src
      else Array.unsafe_get perm (k + 1)
    else if k = dst then Array.unsafe_get perm src
    else if k > dst && k <= src then Array.unsafe_get perm (k - 1)
    else Array.unsafe_get perm k

(* Give [pos] the positions the move's window would have ([perm] is left
   alone), and undo that.  Outside the window nothing moves. *)
let apply_pos perm pos move =
  match move with
  | Move.Swap (i, j) ->
    pos.(perm.(i)) <- j;
    pos.(perm.(j)) <- i
  | Move.Insert (src, dst) ->
    if src < dst then
      for p = src + 1 to dst do
        pos.(perm.(p)) <- p - 1
      done
    else
      for p = dst to src - 1 do
        pos.(perm.(p)) <- p + 1
      done;
    pos.(perm.(src)) <- dst

let restore_pos perm pos move =
  match move with
  | Move.Swap (i, j) ->
    pos.(perm.(i)) <- i;
    pos.(perm.(j)) <- j
  | Move.Insert (src, dst) ->
    let a = if src < dst then src else dst and b = if src < dst then dst else src in
    for p = a to b do
      pos.(perm.(p)) <- p
    done

(* Accounting mirrors [Search_state.recost] exactly: [Recost_steps] and the
   tick charge land before any step is walked (so [Budget.Exhausted] fires
   at the same proposal it would have on the reference path), and an
   invalid step aborts after charging, as recost does.

   Past the move's window the placed *set* equals the stored one and [r]
   reads straight from [perm], so the step at [k] is a pure function of the
   running outer card.  The moment that card bit-equals the stored
   [cards.(k - 1)], the rest of the walk would reproduce the stored steps:
   the walk stops there ([upto]), and only the sum is extended over the
   stored tail, term by term in the reference's order — or, as soon as it
   meets the stored partial sum, by the stored total. *)
let consider t move =
  if t.pending then
    invalid_arg "Neighborhood.consider: a considered move is still pending";
  let st = t.state in
  let perm = Search_state.perm_view st in
  let pos = Search_state.pos_view st in
  let cards = Search_state.cards_view st in
  let steps = Search_state.step_costs_view st in
  let psum = Search_state.psum_view st in
  let n = Array.length perm in
  (* [Move.affected_range], without the tuple *)
  let lo = match move with Move.Swap (i, j) | Move.Insert (i, j) -> if i < j then i else j in
  let hi =
    match move with Move.Swap (i, j) | Move.Insert (i, j) -> 1 + if i < j then j else i
  in
  let first = if lo > 1 then lo else 1 in
  Obs.add Obs.Recost_steps (n - first);
  Evaluator.charge (Search_state.evaluator st) (n - first);
  Obs.bump Obs.Neighbors_evaluated;
  let sc = t.scratch_cards in
  if lo = 0 then sc.(0) <- t.base_cards.(vperm perm move 0)
  else sc.(first - 1) <- cards.(first - 1);
  let sum = ref psum.(first - 1) in
  let ok = ref true in
  let upto = ref n in
  apply_pos perm pos move;
  (match
     let k = ref first in
     while !ok && !k < n do
       let i = !k in
       if i >= hi && Array.unsafe_get cards (i - 1) = Array.unsafe_get sc (i - 1)
       then begin
         upto := i;
         let m = ref i in
         while !m < n do
           let s = !sum +. Array.unsafe_get steps !m in
           if s = Array.unsafe_get psum !m then begin
             sum := Array.unsafe_get psum (n - 1);
             m := n
           end
           else begin
             sum := s;
             incr m
           end
         done;
         k := n
       end
       else if
         Plan_cost.Stepper.step t.stepper ~price_cross:false ~pos ~cards:sc
           ~costs:t.scratch_steps ~k:i ~r:(vperm perm move i)
       then begin
         sum := !sum +. Array.unsafe_get t.scratch_steps i;
         incr k
       end
       else ok := false
     done
   with
  | () -> restore_pos perm pos move
  | exception e ->
    restore_pos perm pos move;
    raise e);
  if !ok then begin
    t.pending <- true;
    t.pending_move <- move;
    t.pending_lo <- lo;
    t.pending_upto <- !upto;
    Some !sum
  end
  else None

let accept t =
  if not t.pending then
    invalid_arg "Neighborhood.accept: no move under consideration";
  Search_state.apply_evaluated t.state t.pending_move ~lo:t.pending_lo
    ~upto:t.pending_upto ~cards:t.scratch_cards ~step_costs:t.scratch_steps;
  t.pending <- false

let reject t =
  if not t.pending then
    invalid_arg "Neighborhood.reject: no move under consideration";
  t.pending <- false

let adjacent_swaps t f =
  for i = 0 to Search_state.n t.state - 2 do
    let v = consider t (Move.Swap (i, i + 1)) in
    (match v with Some _ -> reject t | None -> ());
    f i v
  done

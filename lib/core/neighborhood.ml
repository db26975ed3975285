open Ljqo_cost
module Obs = Ljqo_obs.Obs

(* The neighbor kernel: evaluate a candidate change of a search state — one
   move, or a rewrite of a window of positions — without keeping any change
   to it.  A candidate costs O(1) to set up: the sum over the untouched
   steps is one read of the state's partial sums, and placement is the
   state's own [pos] array, with the candidate's window applied for the walk
   and undone before [consider] returns or raises.  The changed permutation
   is read virtually, step costs stream through [Plan_cost.Stepper] into
   preallocated scratch, and the walk stops where the intermediate sizes
   meet the stored ones again.  Only an accepted candidate writes the state
   (the permutation here, the costing arrays through
   [Search_state.install_evaluated]).

   Bit-identity contract (enforced by qcheck against the snapshot, mutate,
   recost-to-the-end and rollback protocol kept in
   [test/search_state_reference.ml]): for any state and candidate, the
   verdict, the ticks charged and the point at which they are charged equal
   that protocol's, and an [accept] leaves the state bit-identical to its
   committed state.  Placement by position works at every graph width, so
   there is one path. *)

type t = {
  state : Search_state.t;
  stepper : Plan_cost.Stepper.t;
  base_cards : float array;
  scratch_cards : float array;
  scratch_steps : float array;
  window : int array;
      (* a rewrite's relations, copied in so the caller may reuse its array *)
  (* The pending candidate, if [pending]: a rewrite of
     [window.(0 .. hi - lo - 1)] at [lo] when [rewriting], else [move].  Its
     effect on [max lo 1 .. upto - 1] lives in the scratch arrays; from
     [upto] on it equals the stored state.  Mutable fields rather than a
     variant, so recording it allocates nothing. *)
  mutable pending : bool;
  mutable rewriting : bool;
  mutable move : Move.t;
  mutable lo : int;
  mutable hi : int;
  mutable upto : int;
}

(* The [move] recorded with a rewrite; never read. *)
let no_move = Move.Swap (0, 0)

let create state =
  let ev = Search_state.evaluator state in
  let query = Evaluator.query ev and model = Evaluator.model ev in
  let n = Search_state.n state in
  {
    state;
    stepper = Plan_cost.Stepper.make ?calibration:(Evaluator.calibration ev) model query;
    base_cards = Ljqo_catalog.Query.cardinalities query;
    scratch_cards = Array.make (max n 1) 0.0;
    scratch_steps = Array.make (max n 1) 0.0;
    window = Array.make n 0;
    pending = false;
    rewriting = false;
    move = no_move;
    lo = 0;
    hi = 0;
    upto = 0;
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

(* The same read for any candidate: a rewrite of [window] at [lo, hi), or
   [move]. *)
let[@inline] read ~rewriting ~window ~lo ~hi perm move k =
  if rewriting then
    if k >= lo && k < hi then Array.unsafe_get window (k - lo)
    else Array.unsafe_get perm k
  else vperm perm move k

(* Give [pos] the positions the candidate's window would have ([perm] is
   left alone), and undo that.  Outside the window nothing moves. *)
let apply_pos ~rewriting ~window ~lo ~hi perm pos move =
  if rewriting then
    for p = lo to hi - 1 do
      pos.(window.(p - lo)) <- p
    done
  else
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

let restore_pos ~rewriting ~lo ~hi perm pos move =
  match move with
  | Move.Swap (i, j) when not rewriting ->
    pos.(perm.(i)) <- i;
    pos.(perm.(j)) <- j
  | _ ->
    (* an insert or a rewrite: every position of the window *)
    for p = lo to hi - 1 do
      pos.(perm.(p)) <- p
    done

(* Evaluate a candidate whose window is [lo, hi).  Accounting
   mirrors the reference protocol's recost exactly: [Recost_steps] and the
   tick charge land before any step is walked (so [Budget.Exhausted] fires
   at the same proposal it would have there), and an invalid step aborts
   after charging, as recost does.

   Past the window the placed *set* equals the stored one and [r] reads
   straight from [perm], so the step at [k] is a pure function of the
   running outer card.  The moment that card bit-equals the stored
   [cards.(k - 1)], the rest of the walk would reproduce the stored steps:
   the walk stops there ([upto]), and only the sum is extended over the
   stored tail, term by term in the reference's order — or, as soon as it
   meets the stored partial sum, by the stored total. *)
let walk t ~rewriting move ~lo ~hi =
  let st = t.state in
  let perm = Search_state.perm_view st in
  let pos = Search_state.pos_view st in
  let cards = Search_state.cards_view st in
  let steps = Search_state.step_costs_view st in
  let psum = Search_state.psum_view st in
  let n = Array.length perm in
  let window = t.window in
  let first = if lo > 1 then lo else 1 in
  Obs.add Obs.Recost_steps (n - first);
  Evaluator.charge (Search_state.evaluator st) (n - first);
  Obs.bump Obs.Neighbors_evaluated;
  let sc = t.scratch_cards in
  if lo = 0 then
    sc.(0) <- t.base_cards.(read ~rewriting ~window ~lo ~hi perm move 0)
  else sc.(first - 1) <- cards.(first - 1);
  let sum = ref psum.(first - 1) in
  let ok = ref true in
  let upto = ref n in
  apply_pos ~rewriting ~window ~lo ~hi perm pos move;
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
           ~costs:t.scratch_steps ~k:i
           ~r:(read ~rewriting ~window ~lo ~hi perm move i)
       then begin
         sum := !sum +. Array.unsafe_get t.scratch_steps i;
         incr k
       end
       else ok := false
     done
   with
  | () -> restore_pos ~rewriting ~lo ~hi perm pos move
  | exception e ->
    restore_pos ~rewriting ~lo ~hi perm pos move;
    raise e);
  if !ok then begin
    t.pending <- true;
    t.rewriting <- rewriting;
    t.move <- move;
    t.lo <- lo;
    t.hi <- hi;
    t.upto <- !upto;
    Some !sum
  end
  else None

let check_idle t =
  if t.pending then
    invalid_arg "Neighborhood.consider: a considered move is still pending"

let consider t move =
  check_idle t;
  (* [Move.affected_range], without the tuple *)
  match move with
  | Move.Swap (i, j) | Move.Insert (i, j) ->
    walk t ~rewriting:false move
      ~lo:(if i < j then i else j)
      ~hi:(1 + if i < j then j else i)

let consider_rewrite t ~lo ~rels =
  check_idle t;
  let len = Array.length rels in
  if lo < 0 || lo + len > Search_state.n t.state then
    invalid_arg "Neighborhood.consider_rewrite: window out of range";
  Array.blit rels 0 t.window 0 len;
  walk t ~rewriting:true no_move ~lo ~hi:(lo + len)

(* Write the pending candidate's permutation and positions into the state's
   own arrays. *)
let install_perm t =
  let perm = Search_state.perm_view t.state in
  let pos = Search_state.pos_view t.state in
  if t.rewriting then
    for p = t.lo to t.hi - 1 do
      let r = t.window.(p - t.lo) in
      perm.(p) <- r;
      pos.(r) <- p
    done
  else
    match t.move with
    | Move.Swap (i, j) ->
      let a = perm.(i) and b = perm.(j) in
      perm.(i) <- b;
      perm.(j) <- a;
      pos.(b) <- i;
      pos.(a) <- j
    | Move.Insert (src, dst) ->
      let moved = perm.(src) in
      if src < dst then
        for i = src to dst - 1 do
          perm.(i) <- perm.(i + 1);
          pos.(perm.(i)) <- i
        done
      else
        for i = src downto dst + 1 do
          perm.(i) <- perm.(i - 1);
          pos.(perm.(i)) <- i
        done;
      perm.(dst) <- moved;
      pos.(moved) <- dst

let accept t =
  if not t.pending then
    invalid_arg "Neighborhood.accept: no move under consideration";
  install_perm t;
  Search_state.install_evaluated t.state ~lo:t.lo ~upto:t.upto
    ~cards:t.scratch_cards ~step_costs:t.scratch_steps;
  t.pending <- false

let reject t =
  if not t.pending then
    invalid_arg "Neighborhood.reject: no move under consideration";
  t.pending <- false

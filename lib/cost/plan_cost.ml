open Ljqo_catalog

type eval = {
  cards : float array;
  step_costs : float array;
  total : float;
  est_steps : int;
}

(* Execution-feedback calibration: every effective edge selectivity is
   multiplied by the per-edge correction factor fitted from observed
   cardinalities (see Ljqo_feedback.Calibration).  Only [eval] takes it, to
   estimate an executed plan; the search paths build their steppers with
   [Stepper.make], which has none.  Without it no float operation is added,
   so uncalibrated costing stays bit-identical. *)
type calibration = { sel_factor : float }

let joins_before query ~perm ~pos i =
  let r = perm.(i) in
  List.exists
    (fun (other, _) -> pos.(other) < i)
    (Join_graph.neighbors (Query.graph query) r)

(* Ceiling on estimated cardinalities.  Terrible plans produce sizes beyond
   any float's useful range; capping keeps every cost finite so that
   incremental cost deltas never become [inf -. inf] (NaN), while leaving
   such plans astronomically expensive (they are coerced to the outlier
   threshold by the experiment methodology anyway). *)
let card_ceiling = 1e120

(* Ceiling on per-step costs, for the same reason — and a containment wall
   against misbehaving cost models (overflow to infinity, NaN, negative
   values).  A NaN or infinite step cost is pessimized to the ceiling, a
   negative one floored at zero, so every search method always sees finite,
   totally ordered costs and terminates with a valid plan even under fault
   injection (the chaos suite wraps models to check this). *)
let cost_ceiling = 1e150

(* Both clamps are written as plain compares: for a constant, non-NaN bound
   [b] and any non-NaN [c], [if c > b then c else b] is [Float.max b c] and
   [if c > b then b else c] is [Float.min b c], bit for bit (signed zeros
   included); NaN is handled first.  Inlined, they box nothing. *)
let[@inline] clamp_card c =
  if Float.is_nan c then 1.0
  else
    let c = if c > 1.0 then c else 1.0 in
    if c > card_ceiling then card_ceiling else c

let[@inline] clamp_cost c =
  if Float.is_nan c then cost_ceiling
  else
    let c = if c > 0.0 then c else 0.0 in
    if c > cost_ceiling then cost_ceiling else c

(* The one join-step kernel.  Relation [j] counts as placed before position
   [k] when [pos.(j) < k], so a prefix costs nothing to build or carry at
   any graph width: the incremental recost and the neighbor kernel pass the
   state's inverse permutation, [eval] builds one, and [Exhaustive] marks
   unplaced relations with [max_int].

   One pass over [r]'s neighbor arrays yields both the cross-product test
   and the product of the effective selectivities of the placed edges, in
   ascending neighbor order.  Each factor is the effective selectivity of
   the edge: the stored selectivity [1 / max (D_k, D_r)] rescaled by
   clamping [D_k] to the tuples actually present, [min (D_k, outer_card)] —
   a small intermediate cannot carry more join values than tuples, which
   makes selectivity (and hence cost) order-dependent, as in real systems —
   then multiplied by the calibration factor if [eval] was given one, and
   capped at 1.  It is written with plain compares, which agree bit for bit
   with the [Float.min]/[Float.max] form of the formula (the test oracle's
   [edge_selectivity]) because distinct counts are at least 1 (neither NaN
   nor a signed zero; see [Relation.distinct_values]) and a constant
   non-NaN bound is compared the same way by both forms.

   The outer cardinality is read from [cards.(k - 1)] and the results are
   written to [cards.(k)] and [costs.(k)], so no float crosses the call
   boxed.  The cost-model module is unpacked once, at [create], and the
   stepper owns the flat [join_input] record it refills for every priced
   step, so the model's inputs and its cost cross unboxed too. *)
module Stepper = struct
  type t = {
    adjacency : int array array;
    selectivities : float array array;
    base_cards : float array;
    distincts : float array;
    join_cost : is_first:bool -> is_cross:bool -> Cost_model.join_input -> unit;
    input : Cost_model.join_input;
    calibration : calibration option;
  }

  let create calibration (model : Cost_model.t) query =
    let module M = (val model : Cost_model.S) in
    let graph = Query.graph query in
    {
      adjacency = Join_graph.adjacency graph;
      selectivities = Join_graph.selectivity_table graph;
      base_cards = Query.cardinalities query;
      distincts = Query.distinct_counts query;
      join_cost = M.join_cost;
      input =
        {
          outer_card = 0.0;
          inner_card = 0.0;
          inner_distinct = 0.0;
          output_card = 0.0;
          cost = 0.0;
        };
      calibration;
    }

  let make model query = create None model query

  let step t ~price_cross ~pos ~cards ~costs ~k ~r =
    (* Checked reads of [r] and [pos]'s length: every neighbor id is then a
       valid index into [distincts] and [pos]. *)
    let ids = t.adjacency.(r) in
    if Array.length pos < Array.length t.distincts then
      invalid_arg "Plan_cost.Stepper.step: pos is shorter than the relation count";
    let sels = Array.unsafe_get t.selectivities r in
    let dr = Array.unsafe_get t.distincts r in
    let outer_card = cards.(k - 1) in
    let calib = t.calibration in
    let sel = ref 1.0 in
    let joined = ref false in
    for j = 0 to Array.length ids - 1 do
      let other = Array.unsafe_get ids j in
      if Array.unsafe_get pos other < k then begin
        joined := true;
        let dk = Array.unsafe_get t.distincts other in
        let m = if outer_card > dk then dk else outer_card in
        let clamped = if m < 1.0 then 1.0 else m in
        let s =
          Array.unsafe_get sels j
          *. (if dr > dk then dr else dk)
          /. if dr > clamped then dr else clamped
        in
        let s = match calib with None -> s | Some c -> s *. c.sel_factor in
        sel := !sel *. if s > 1.0 then 1.0 else s
      end
    done;
    if !joined || price_cross then begin
      let inner_card = Array.unsafe_get t.base_cards r in
      let output_card = clamp_card (outer_card *. inner_card *. !sel) in
      let input = t.input in
      input.outer_card <- outer_card;
      input.inner_card <- inner_card;
      input.inner_distinct <- dr;
      input.output_card <- output_card;
      t.join_cost ~is_first:(k = 1) ~is_cross:(not !joined) input;
      costs.(k) <- clamp_cost input.cost;
      cards.(k) <- output_card
    end;
    !joined
end

let eval ?calibration model query perm =
  let n = Array.length perm in
  if n = 0 then invalid_arg "Plan_cost.eval: empty permutation";
  let n_relations = Query.n_relations query in
  (* Positions of first occurrences, so a repeated id counts as placed from
     its first position on; every id is range-checked before any step. *)
  let pos = Array.make n_relations max_int in
  for i = n - 1 downto 0 do
    let r = perm.(i) in
    if r < 0 || r >= n_relations then
      invalid_arg "Plan_cost.eval: relation id out of range";
    pos.(r) <- i
  done;
  let stepper = Stepper.create calibration model query in
  let cards = Array.make n 0.0 in
  let step_costs = Array.make n 0.0 in
  cards.(0) <- (Query.cardinalities query).(perm.(0));
  let total = ref 0.0 in
  for i = 1 to n - 1 do
    ignore
      (Stepper.step stepper ~price_cross:true ~pos ~cards ~costs:step_costs ~k:i
         ~r:perm.(i));
    total := !total +. step_costs.(i)
  done;
  { cards; step_costs; total = !total; est_steps = n }

let total model query perm = (eval model query perm).total

(* The standard estimation-error factor (Moerkotte et al.): symmetric in
   est/act and always >= 1.  Both sides are floored at one tuple so an empty
   actual result (act = 0) yields a finite factor instead of infinity. *)
let qerror ~est ~act =
  let e = Float.max est 1.0 in
  let a = Float.max act 1.0 in
  Float.max (e /. a) (a /. e)

let reference_final_cardinality query =
  let n = Query.n_relations query in
  let card = ref 1.0 in
  for i = 0 to n - 1 do
    card := !card *. Query.cardinality query i
  done;
  let sel =
    Join_graph.fold_edges
      (fun e acc -> acc *. e.selectivity)
      (Query.graph query) 1.0
  in
  Float.max 1.0 (!card *. sel)

let lower_bound (model : Cost_model.t) query =
  let module M = (val model : Cost_model.S) in
  let n = Query.n_relations query in
  let scans = ref 0.0 in
  for i = 0 to n - 1 do
    scans := !scans +. clamp_cost (M.scan_cost ~card:(Query.cardinality query i))
  done;
  !scans

(* Test oracle for [Ljqo_cost.Plan_cost.eval]: the original costing, with the
   placed prefix carried as a growing [Bitset.t], [edge_selectivity] called
   per placed edge on boxed floats, and the [Float.min]/[Float.max] clamps.
   The position-based kernel must reproduce its cards, step costs and total
   bit for bit — fixed-seed plans depend on every one of those bits.
   [edge_selectivity] is also the formula's reference form for the
   augmentation oracle and the unit tests. *)

open Ljqo_catalog
open Ljqo_cost

let card_ceiling = 1e120

let cost_ceiling = 1e150

let clamp_card c =
  if Float.is_nan c then 1.0 else Float.min card_ceiling (Float.max 1.0 c)

let clamp_cost c =
  if Float.is_nan c then cost_ceiling else Float.min cost_ceiling (Float.max 0.0 c)

(* Effective selectivity of the edge (k, r) when the intermediate result
   holding k currently has [outer_card] tuples: the stored selectivity
   [1 / max (D_k, D_r)] is rescaled by clamping [D_k] to the tuples actually
   present, [min (D_k, outer_card)], then multiplied by the calibration
   factor, if any, and capped at 1. *)
let edge_selectivity ?calibration query ~outer_card ~k ~r s_base =
  let dk = Query.distinct_values query k in
  let dr = Query.distinct_values query r in
  let clamped = Float.max (Float.min dk outer_card) 1.0 in
  let s = s_base *. Float.max dk dr /. Float.max clamped dr in
  let s =
    match calibration with
    | None -> s
    | Some c -> s *. c.Plan_cost.sel_factor
  in
  Float.min 1.0 s

let joins_prefix query ~prefix r =
  Bitset.intersects (Join_graph.neighbor_mask (Query.graph query) r) prefix

let selectivity_prefix ?calibration query ~prefix ~outer_card r =
  let graph = Query.graph query in
  let ids = Join_graph.neighbor_ids graph r in
  let sels = Join_graph.neighbor_sels graph r in
  let acc = ref 1.0 in
  for j = 0 to Array.length ids - 1 do
    let k = ids.(j) in
    if Bitset.mem k prefix then
      acc := !acc *. edge_selectivity ?calibration query ~outer_card ~k ~r sels.(j)
  done;
  !acc

let step_cost_prefix ?calibration (model : Cost_model.t) query ~prefix ~r ~is_first
    ~outer_card =
  let module M = (val model : Cost_model.S) in
  let inner_card = Query.cardinality query r in
  let sel = selectivity_prefix ?calibration query ~prefix ~outer_card r in
  let is_cross = not (joins_prefix query ~prefix r) in
  let output_card = clamp_card (outer_card *. inner_card *. sel) in
  let input : Cost_model.join_input =
    {
      outer_card;
      inner_card;
      inner_distinct = Query.distinct_values query r;
      output_card;
      cost = 0.0;
    }
  in
  M.join_cost ~is_first ~is_cross input;
  (clamp_cost input.cost, output_card)

let eval ?calibration model query perm : Plan_cost.eval =
  let n = Array.length perm in
  if n = 0 then invalid_arg "Plan_cost.eval: empty permutation";
  let cards = Array.make n 0.0 in
  let step_costs = Array.make n 0.0 in
  cards.(0) <- Query.cardinality query perm.(0);
  let total = ref 0.0 in
  let prefix = ref (Bitset.singleton perm.(0)) in
  for i = 1 to n - 1 do
    let cost, out =
      step_cost_prefix ?calibration model query ~prefix:!prefix ~r:perm.(i)
        ~is_first:(i = 1) ~outer_card:cards.(i - 1)
    in
    cards.(i) <- out;
    step_costs.(i) <- cost;
    total := !total +. cost;
    prefix := Bitset.add perm.(i) !prefix
  done;
  { cards; step_costs; total = !total; est_steps = n }

open Ljqo_catalog

(* The raw size product is propagated unfloored so that the estimate of a
   set is genuinely order-independent (flooring per step would make the
   running value depend on where the product dips below one tuple, breaking
   the optimal-substructure property DP relies on).  Extreme guards keep the
   product inside the float range; display/costing floors at 1. *)
let raw_floor = 1e-280

let raw_ceiling = 1e120

let guard x = Float.min raw_ceiling (Float.max raw_floor x)

let displayed raw = Float.min raw_ceiling (Float.max 1.0 raw)

let raw_extend query ~raw ~members r =
  let sel =
    List.fold_left
      (fun acc (other, s) -> if List.mem other members then acc *. s else acc)
      1.0
      (Join_graph.neighbors (Query.graph query) r)
  in
  guard (raw *. Query.cardinality query r *. sel)

(* Mask twins of [raw_extend]/[step_cost]: membership is a bitset test
   instead of [List.mem], and neighbors come from the cached parallel
   arrays.  Same ascending visit order, so the float products match the
   list forms bit-for-bit (the DP equivalence property relies on this). *)

let raw_extend_mask query ~raw ~mask r =
  let graph = Query.graph query in
  let ids = Join_graph.neighbor_ids graph r in
  let sels = Join_graph.neighbor_sels graph r in
  let sel = ref 1.0 in
  for j = 0 to Array.length ids - 1 do
    if Bitset.mem (Array.unsafe_get ids j) mask then
      sel := !sel *. Array.unsafe_get sels j
  done;
  guard (raw *. Query.cardinality query r *. !sel)

let step_cost_mask (model : Cost_model.t) query ~outer_card ~mask r =
  let module M = (val model : Cost_model.S) in
  let raw' = raw_extend_mask query ~raw:outer_card ~mask r in
  let is_cross =
    not (Bitset.intersects (Join_graph.neighbor_mask (Query.graph query) r) mask)
  in
  let input : Cost_model.join_input =
    {
      outer_card = displayed outer_card;
      inner_card = Query.cardinality query r;
      inner_distinct = Query.distinct_values query r;
      output_card = displayed raw';
      cost = 0.0;
    }
  in
  M.join_cost ~is_first:(Bitset.is_empty mask) ~is_cross input;
  (Plan_cost.clamp_cost input.cost, raw')

let step_cost (model : Cost_model.t) query ~outer_card ~members r =
  let module M = (val model : Cost_model.S) in
  let raw' = raw_extend query ~raw:outer_card ~members r in
  let is_cross =
    not
      (List.exists
         (fun (other, _) -> List.mem other members)
         (Join_graph.neighbors (Query.graph query) r))
  in
  let input : Cost_model.join_input =
    {
      outer_card = displayed outer_card;
      inner_card = Query.cardinality query r;
      inner_distinct = Query.distinct_values query r;
      output_card = displayed raw';
      cost = 0.0;
    }
  in
  M.join_cost ~is_first:(members = []) ~is_cross input;
  (Plan_cost.clamp_cost input.cost, raw')

let eval model query perm =
  let n = Array.length perm in
  if n = 0 then invalid_arg "Product_cost.eval: empty permutation";
  let cards = Array.make n 0.0 in
  let step_costs = Array.make n 0.0 in
  let raw = ref (Query.cardinality query perm.(0)) in
  cards.(0) <- displayed !raw;
  let total = ref 0.0 in
  let members = ref [ perm.(0) ] in
  for i = 1 to n - 1 do
    let cost, raw' = step_cost model query ~outer_card:!raw ~members:!members perm.(i) in
    raw := raw';
    cards.(i) <- displayed raw';
    step_costs.(i) <- cost;
    total := !total +. cost;
    members := perm.(i) :: !members
  done;
  { Plan_cost.cards; step_costs; total = !total; est_steps = n }

let total model query perm = (eval model query perm).Plan_cost.total

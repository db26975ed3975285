type t = Hash_join | Sort_merge_join | Nested_loop_join

let all = [ Hash_join; Sort_merge_join; Nested_loop_join ]

let name = function
  | Hash_join -> "hash"
  | Sort_merge_join -> "sort-merge"
  | Nested_loop_join -> "nested-loop"

type params = {
  hash : Memory_model.params;
  c_sort : float;
  c_merge : float;
  c_loop_compare : float;
  c_output : float;
}

let default_params =
  {
    hash = Memory_model.default_params;
    c_sort = 0.25;
    c_merge = 1.0;
    c_loop_compare = 0.25;
    c_output = 1.0;
  }

let applicable m ~is_cross =
  match m with
  | Nested_loop_join -> true
  | Hash_join | Sort_merge_join -> not is_cross

let[@inline] log2 x = if x <= 2.0 then 1.0 else log x /. log 2.0

(* The three formulas, inlined so their floats stay unboxed. *)
let[@inline] hash_cost params (j : Cost_model.join_input) =
  let p = params.hash in
  let chain = j.inner_card /. Float.max 1.0 j.inner_distinct in
  (p.Memory_model.c_build *. j.inner_card)
  +. (j.outer_card *. (p.Memory_model.c_probe +. (p.Memory_model.c_compare *. chain)))
  +. (p.Memory_model.c_output *. j.output_card)

let[@inline] sort_merge_cost params (j : Cost_model.join_input) =
  (params.c_sort *. j.outer_card *. log2 j.outer_card)
  +. (params.c_sort *. j.inner_card *. log2 j.inner_card)
  +. (params.c_merge *. (j.outer_card +. j.inner_card))
  +. (params.c_output *. j.output_card)

let[@inline] nested_loop_cost params (j : Cost_model.join_input) =
  (params.c_loop_compare *. j.outer_card *. j.inner_card)
  +. (params.c_output *. j.output_card)

let cost ?(params = default_params) m ~is_cross (j : Cost_model.join_input) =
  if not (applicable m ~is_cross) then infinity
  else
    match m with
    | Hash_join -> hash_cost params j
    | Sort_merge_join -> sort_merge_cost params j
    | Nested_loop_join -> nested_loop_cost params j

(* [cheapest], its cost written to [j.cost]; allocates nothing. *)
let choose params ~is_cross (j : Cost_model.join_input) =
  j.cost <- nested_loop_cost params j;
  if is_cross then Nested_loop_join
  else begin
    let h = hash_cost params j in
    let m = if h < j.cost then (j.cost <- h; Hash_join) else Nested_loop_join in
    let sm = sort_merge_cost params j in
    if sm < j.cost then (j.cost <- sm; Sort_merge_join) else m
  end

let cheapest ?(params = default_params) ~is_cross (j : Cost_model.join_input) =
  let j = { j with cost = 0.0 } in
  let m = choose params ~is_cross j in
  (m, j.cost)

module Make_adaptive (P : sig
  val params : params
end) : Cost_model.S = struct
  let name = "adaptive-memory"

  let join_cost ~is_first:_ ~is_cross j = ignore (choose P.params ~is_cross j)

  let scan_cost ~card = P.params.hash.Memory_model.c_build *. card

  let output_cost ~card = P.params.c_output *. card
end

module Adaptive_memory = Make_adaptive (struct
  let params = default_params
end)

let make_adaptive params : Cost_model.t =
  (module Make_adaptive (struct
    let params = params
  end))

let annotate ?(params = default_params) query plan =
  let model = make_adaptive params in
  let e = Plan_cost.eval model query plan in
  let pos = Array.make (Array.length plan) 0 in
  Array.iteri (fun i r -> pos.(r) <- i) plan;
  List.init
    (Array.length plan - 1)
    (fun k ->
      let i = k + 1 in
      let r = plan.(i) in
      let is_cross = not (Plan_cost.joins_before query ~perm:plan ~pos i) in
      let input : Cost_model.join_input =
        {
          outer_card = e.cards.(i - 1);
          inner_card = Ljqo_catalog.Query.cardinality query r;
          inner_distinct = Ljqo_catalog.Query.distinct_values query r;
          output_card = e.cards.(i);
          cost = 0.0;
        }
      in
      let m, c = cheapest ~params ~is_cross input in
      (i, m, c))

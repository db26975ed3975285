open Ljqo_catalog
open Ljqo_cost
open Ljqo_stats

type t = Leaf of int | Join of t * t

let rec relations = function
  | Leaf r -> [ r ]
  | Join (l, r) -> relations l @ relations r

let rec n_leaves = function Leaf _ -> 1 | Join (l, r) -> n_leaves l + n_leaves r

let rec is_linear = function
  | Leaf _ -> true
  | Join (l, Leaf _) -> is_linear l
  | Join (_, Join _) -> false

(* Edges between two disjoint relation sets. *)
let connecting_edges graph left right =
  List.concat_map
    (fun u ->
      List.filter_map
        (fun (v, s) -> if List.mem v right then Some (u, v, s) else None)
        (Join_graph.neighbors graph u))
    left

let is_valid query tree =
  let n = Query.n_relations query in
  let rels = relations tree in
  let sorted = List.sort compare rels in
  sorted = List.init n Fun.id
  &&
  let graph = Query.graph query in
  let rec check = function
    | Leaf _ -> true
    | Join (l, r) ->
      check l && check r
      && connecting_edges graph (relations l) (relations r) <> []
  in
  check tree

type eval = { cost : float; card : float }

(* Distinct count of relation [r]'s join column as visible inside an
   intermediate of [card] tuples. *)
let clamped_distinct query ~card r =
  Float.max 1.0 (Float.min (Query.distinct_values query r) card)

let eval (model : Cost_model.t) query tree =
  let module M = (val model : Cost_model.S) in
  let graph = Query.graph query in
  let rec go = function
    | Leaf r -> (0.0, Query.cardinality query r, [ r ])
    | Join (l, r) ->
      let lcost, lcard, lrels = go l in
      let rcost, rcard, rrels = go r in
      let edges = connecting_edges graph lrels rrels in
      let sel =
        List.fold_left
          (fun acc (u, v, s) ->
            let du = clamped_distinct query ~card:lcard u in
            let dv = clamped_distinct query ~card:rcard v in
            let base_max =
              Float.max (Query.distinct_values query u) (Query.distinct_values query v)
            in
            acc *. Float.min 1.0 (s *. base_max /. Float.max du dv))
          1.0 edges
      in
      let is_cross = edges = [] in
      let out = Plan_cost.clamp_card (lcard *. rcard *. sel) in
      (* Inner distinct: the tightest clamped distinct count among the
         inner-side endpoints of the connecting edges. *)
      let inner_distinct =
        List.fold_left
          (fun acc (_, v, _) -> Float.min acc (clamped_distinct query ~card:rcard v))
          rcard edges
      in
      let input : Cost_model.join_input =
        {
          outer_card = lcard;
          inner_card = rcard;
          inner_distinct = Float.max 1.0 inner_distinct;
          output_card = out;
          cost = 0.0;
        }
      in
      M.join_cost ~is_first:false ~is_cross input;
      (lcost +. rcost +. Plan_cost.clamp_cost input.cost, out, lrels @ rrels)
  in
  let cost, card, _ = go tree in
  { cost; card }

let cost model query tree = (eval model query tree).cost

let random rng query =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  if n = 0 then invalid_arg "Bushy.random: empty query";
  (* Fragments with their relation sets; repeatedly pick a random joinable
     pair and merge. *)
  let frags = ref (List.init n (fun r -> (Leaf r, [ r ]))) in
  while List.length !frags > 1 do
    let arr = Array.of_list !frags in
    let pairs = ref [] in
    Array.iteri
      (fun i (_, ri) ->
        Array.iteri
          (fun j (_, rj) ->
            if i < j && connecting_edges graph ri rj <> [] then
              pairs := (i, j) :: !pairs)
          arr)
      arr;
    (match !pairs with
    | [] -> invalid_arg "Bushy.random: join graph is disconnected"
    | ps ->
      let i, j = Rng.choose_list rng ps in
      let ti, ri = arr.(i) and tj, rj = arr.(j) in
      let joined =
        if Rng.bool rng then (Join (ti, tj), ri @ rj) else (Join (tj, ti), rj @ ri)
      in
      let rest =
        Array.to_list arr
        |> List.filteri (fun k _ -> k <> i && k <> j)
      in
      frags := joined :: rest)
  done;
  match !frags with [ (t, _) ] -> t | _ -> assert false

let rec count_joins = function
  | Leaf _ -> 0
  | Join (l, r) -> 1 + count_joins l + count_joins r

let random_move rng tree =
  let joins = count_joins tree in
  if joins = 0 then tree
  else
    let target = Rng.int rng joins in
    let counter = ref (-1) in
    let kind = Rng.int rng 3 in
    let rec go t =
      match t with
      | Leaf _ -> t
      | Join (l, r) ->
        incr counter;
        if !counter = target then
          match kind with
          | 0 -> Join (r, l) (* commute *)
          | 1 -> (
            (* rotate: ((a b) c) -> (a (b c)), or (a (b c)) -> ((a b) c) *)
            match (l, r) with
            | Join (a, b), c -> Join (a, Join (b, c))
            | a, Join (b, c) -> Join (Join (a, b), c)
            | _ -> Join (r, l))
          | _ -> (
            (* exchange inner subtrees across the join when possible:
               ((a b) (c d)) -> ((a c) (b d)) *)
            match (l, r) with
            | Join (a, b), Join (c, d) ->
              if Rng.bool rng then Join (Join (a, c), Join (b, d))
              else Join (Join (a, d), Join (c, b))
            | _ -> Join (r, l))
        else
          let l' = go l in
          if !counter >= target then Join (l', r) else Join (l', go r)
    in
    go tree

(* Iterative improvement over the bushy space from [start]; stops after
   [8 * n] consecutive non-improving valid samples. *)
let improve model query rng ~start =
  let patience = 8 * Query.n_relations query in
  let current = ref start in
  let current_cost = ref (cost model query start) in
  let failures = ref 0 in
  while !failures < patience do
    let candidate = random_move rng !current in
    if candidate != !current && is_valid query candidate then begin
      let c = cost model query candidate in
      if c < !current_cost then begin
        current := candidate;
        current_cost := c;
        failures := 0
      end
      else incr failures
    end
    else incr failures
  done;
  (!current, !current_cost)

let optimize ?(restarts = 10) model query ~seed =
  let rng = Rng.create seed in
  let best = ref None in
  for _ = 1 to max 1 restarts do
    let start = random rng query in
    let t, c = improve model query rng ~start in
    match !best with
    | Some (_, bc) when bc <= c -> ()
    | _ -> best := Some (t, c)
  done;
  match !best with Some r -> r | None -> assert false

let to_string query tree =
  let name r = (Query.relation query r).Relation.name in
  let rec go = function
    | Leaf r -> name r
    | Join (l, r) -> "(" ^ go l ^ " " ^ go r ^ ")"
  in
  go tree

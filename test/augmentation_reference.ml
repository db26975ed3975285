(* Test oracle for [Ljqo_core.Augmentation.generate]: the original
   chooseNext loop, folding over the join graph's [(neighbor, selectivity)]
   lists, calling [Plan_cost_reference.edge_selectivity] per placed edge on
   boxed floats, combining with [Float.min], and ranking candidates as
   [(key, -.d_j, j)] tuples under polymorphic [<].  The array kernel must
   return its plan and call [charge] with its sequence of amounts, for every
   query, criterion, start and calibration. *)

open Ljqo_catalog
open Ljqo_core

let generate ?(charge = ignore) ?calibration query (criterion : Augmentation.criterion)
    ~start =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  if start < 0 || start >= n then invalid_arg "Augmentation.generate: bad start";
  let perm = Array.make n (-1) in
  let placed = Array.make n false in
  let candidates = Array.make n 0 in
  let cand_index = Array.make n (-1) in
  let cand_count = ref 0 in
  let inter_card = ref 0.0 in
  let add_candidate r =
    if (not placed.(r)) && cand_index.(r) < 0 then begin
      candidates.(!cand_count) <- r;
      cand_index.(r) <- !cand_count;
      incr cand_count
    end
  in
  let remove_candidate r =
    let i = cand_index.(r) in
    if i >= 0 then begin
      let last = candidates.(!cand_count - 1) in
      candidates.(i) <- last;
      cand_index.(last) <- i;
      cand_index.(r) <- -1;
      decr cand_count
    end
  in
  let effective_product j =
    List.fold_left
      (fun acc (i, s) ->
        if placed.(i) then
          acc
          *. Plan_cost_reference.edge_selectivity ?calibration query
               ~outer_card:!inter_card ~k:i ~r:j s
        else acc)
      1.0
      (Join_graph.neighbors graph j)
  in
  let min_effective_edge j =
    List.fold_left
      (fun acc (i, s) ->
        if placed.(i) then
          Float.min acc
            (Plan_cost_reference.edge_selectivity ?calibration query
               ~outer_card:!inter_card ~k:i ~r:j s)
        else acc)
      1.0
      (Join_graph.neighbors graph j)
  in
  let place i r =
    inter_card :=
      (if i = 0 then Query.cardinality query r
       else
         Float.max 1.0
           (!inter_card *. Query.cardinality query r *. effective_product r));
    perm.(i) <- r;
    placed.(r) <- true;
    remove_candidate r;
    List.iter
      (fun (other, _) -> if not placed.(other) then add_candidate other)
      (Join_graph.neighbors graph r)
  in
  let key j =
    let nj = Query.cardinality query j in
    match criterion with
    | Min_cardinality -> nj
    | Max_degree -> -.float_of_int (Join_graph.degree graph j)
    | Min_selectivity -> min_effective_edge j
    | Min_intermediate_size -> !inter_card *. nj *. effective_product j
    | Min_rank ->
      let dj = Query.distinct_values query j in
      let numer = (!inter_card *. nj *. effective_product j) -. 1.0 in
      let denom = 0.5 *. !inter_card *. (nj /. dj) in
      numer /. denom
  in
  let score j = (key j, -.Query.distinct_values query j, j) in
  place 0 start;
  for i = 1 to n - 1 do
    if !cand_count = 0 then
      invalid_arg "Augmentation.generate: join graph is disconnected";
    charge !cand_count;
    let best = ref candidates.(0) in
    let best_score = ref (score candidates.(0)) in
    for c = 1 to !cand_count - 1 do
      let j = candidates.(c) in
      let s = score j in
      if s < !best_score then begin
        best := j;
        best_score := s
      end
    done;
    place i !best
  done;
  perm

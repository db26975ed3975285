type t = {
  relations : Relation.t array;
  graph : Join_graph.t;
  cards : float array;
  distincts : float array;
}

let make ~relations ~graph =
  let n = Array.length relations in
  if Join_graph.n graph <> n then
    invalid_arg "Query.make: graph size does not match relation count";
  Array.iteri
    (fun i (r : Relation.t) ->
      if r.id <> i then invalid_arg "Query.make: relation ids must match indices")
    relations;
  {
    relations;
    graph;
    cards = Array.map Relation.cardinality relations;
    distincts = Array.map Relation.distinct_values relations;
  }

let n_relations q = Array.length q.relations

let n_joins q = Join_graph.n_edges q.graph

let relation q i = q.relations.(i)

let graph q = q.graph

let cardinality q i = q.cards.(i)

let distinct_values q i = q.distincts.(i)

let cardinalities q = q.cards

let distinct_counts q = q.distincts

let degree q i = Join_graph.degree q.graph i

let is_connected q = Join_graph.is_connected q.graph

let total_base_tuples q = Array.fold_left ( +. ) 0.0 q.cards

let induced q rels =
  let old_ids = Array.of_list rels in
  let k = Array.length old_ids in
  let n = n_relations q in
  let new_id = Array.make n (-1) in
  Array.iteri
    (fun i old ->
      if old < 0 || old >= n then invalid_arg "Query.induced: id out of range";
      if new_id.(old) >= 0 then invalid_arg "Query.induced: duplicate id";
      new_id.(old) <- i)
    old_ids;
  let relations =
    Array.mapi
      (fun i old ->
        let r = q.relations.(old) in
        Relation.make ~id:i ~name:r.Relation.name
          ~base_cardinality:r.Relation.base_cardinality
          ~selections:r.Relation.selection_selectivities
          ~distinct_fraction:r.Relation.distinct_fraction ())
      old_ids
  in
  let edges =
    Join_graph.fold_edges
      (fun e acc ->
        if new_id.(e.Join_graph.u) >= 0 && new_id.(e.Join_graph.v) >= 0 then
          {
            Join_graph.u = new_id.(e.Join_graph.u);
            v = new_id.(e.Join_graph.v);
            selectivity = e.Join_graph.selectivity;
          }
          :: acc
        else acc)
      q.graph []
  in
  (make ~relations ~graph:(Join_graph.make ~n:k edges), old_ids)

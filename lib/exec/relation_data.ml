open Ljqo_catalog
open Ljqo_stats

type t = {
  relation : int;
  card : int;
  columns : (int * int array) list;  (* keyed by the edge's other endpoint *)
}

let generate query ~rel ~rng =
  let card = max 1 (int_of_float (Float.round (Query.cardinality query rel))) in
  let d = max 1 (int_of_float (Float.round (Query.distinct_values query rel))) in
  let columns =
    List.map
      (fun (other, _sel) -> (other, Rng.int_array rng ~len:card d))
      (Join_graph.neighbors (Query.graph query) rel)
  in
  { relation = rel; card; columns }

let of_columns ~relation ~card ~columns =
  if card < 1 then invalid_arg "Relation_data.of_columns: card < 1";
  List.iter
    (fun (_, col) ->
      if Array.length col <> card then
        invalid_arg "Relation_data.of_columns: ragged columns")
    columns;
  { relation; card; columns }

let generate_all query ~rng =
  Array.init (Query.n_relations query) (fun rel ->
      generate query ~rel ~rng:(Rng.split rng))

let relation t = t.relation

let cardinality t = t.card

let column t ~other = List.assoc other t.columns

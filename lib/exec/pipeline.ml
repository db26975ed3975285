open Ljqo_catalog
open Ljqo_stats

type base_table = {
  relation : int;
  base_rows : int;
  join_columns : (int * int array) list;
  selection_attrs : float array array;
}

let generate_base query ~rel ~rng =
  let r = Query.relation query rel in
  let base_rows = r.Relation.base_cardinality in
  (* The base relation's join-value domain: the distinct fraction applies
     to the base tuple count here, since selections are executed below
     rather than folded in. *)
  let domain =
    max 1
      (int_of_float
         (Float.round (r.Relation.distinct_fraction *. float_of_int base_rows)))
  in
  (* Join columns in neighbour order, then selection attributes, each
     filled by a loop rather than a closure call per value. *)
  let join_columns =
    List.map
      (fun (other, _sel) -> (other, Rng.int_array rng ~len:base_rows domain))
      (Join_graph.neighbors (Query.graph query) rel)
  in
  let selection_attrs =
    List.map
      (fun _ ->
        let attr = Array.make base_rows 0.0 in
        for row = 0 to base_rows - 1 do
          attr.(row) <- Rng.float rng 1.0
        done;
        attr)
      r.Relation.selection_selectivities
    |> Array.of_list
  in
  { relation = rel; base_rows; join_columns; selection_attrs }

let survivors query t =
  let r = Query.relation query t.relation in
  let selectivities = Array.of_list r.Relation.selection_selectivities in
  let keep row =
    let ok = ref true in
    Array.iteri
      (fun p attr -> if attr.(row) >= selectivities.(p) then ok := false)
      t.selection_attrs;
    !ok
  in
  let rows = ref [] in
  for row = t.base_rows - 1 downto 0 do
    if keep row then rows := row :: !rows
  done;
  !rows

let select query t =
  let rows =
    match survivors query t with
    | [] -> [ 0 ] (* analytical floor of one tuple *)
    | rows -> rows
  in
  let rows = Array.of_list rows in
  let columns =
    List.map
      (fun (other, col) -> (other, Array.map (fun row -> col.(row)) rows))
      t.join_columns
  in
  Relation_data.of_columns ~relation:t.relation ~card:(Array.length rows) ~columns

let selectivity_observed query t =
  float_of_int (List.length (survivors query t)) /. float_of_int t.base_rows

let prepare query ~rng =
  Array.init (Query.n_relations query) (fun rel ->
      let t = generate_base query ~rel ~rng:(Rng.split rng) in
      select query t)

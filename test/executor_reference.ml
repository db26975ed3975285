(* Test oracle for [Ljqo_exec.Executor.run]: the original row-at-a-time
   executor, one copied binding vector and list cell per emitted row and a
   polymorphic [Hashtbl] of candidate lists per step.  The columnar
   executor must reproduce it exactly — the final rows in order (through
   [on_row]), the [result], the [on_step] sequence and the
   [Result_too_large] payload — because the feedback layer and the
   benchmark's output digests read the counts, and the rows show that
   they count the right join. *)

open Ljqo_catalog
open Ljqo_exec
open Executor

let applicable_edges query ~placed r =
  List.filter_map
    (fun (other, _) -> if placed.(other) then Some other else None)
    (Join_graph.neighbors (Query.graph query) r)

let matches ~data ~row ~r ~t edges =
  List.for_all
    (fun k ->
      let outer_col = Relation_data.column data.(k) ~other:r in
      let inner_col = Relation_data.column data.(r) ~other:k in
      outer_col.(row.(k)) = inner_col.(t))
    edges

let run ?(max_rows = 1_000_000) ?on_step ?on_row query ~data plan =
  let n = Query.n_relations query in
  if (not (Ljqo_core.Plan.is_permutation plan)) || Array.length plan <> n then
    invalid_arg "Executor: plan is not a permutation of the query";
  let placed = Array.make n false in
  let first = plan.(0) in
  let rows =
    ref
      (Array.init (Relation_data.cardinality data.(first)) (fun t ->
           let row = Array.make n (-1) in
           row.(first) <- t;
           row))
  in
  placed.(first) <- true;
  let steps = ref [] in
  for i = 1 to n - 1 do
    let r = plan.(i) in
    let inner_card = Relation_data.cardinality data.(r) in
    let edges = applicable_edges query ~placed r in
    let comparisons = ref 0 in
    let out = ref [] in
    let out_count = ref 0 in
    let emit row t =
      let row' = Array.copy row in
      row'.(r) <- t;
      out := row' :: !out;
      incr out_count;
      if !out_count > max_rows then raise (Result_too_large !out_count)
    in
    (match edges with
    | [] ->
      Array.iter
        (fun row ->
          for t = 0 to inner_card - 1 do
            emit row t
          done)
        !rows
    | anchor :: others ->
      let inner_anchor = Relation_data.column data.(r) ~other:anchor in
      let outer_anchor = Relation_data.column data.(anchor) ~other:r in
      let table = Hashtbl.create inner_card in
      Array.iteri
        (fun t v ->
          let existing = try Hashtbl.find table v with Not_found -> [] in
          Hashtbl.replace table v (t :: existing))
        inner_anchor;
      Array.iter
        (fun row ->
          let v = outer_anchor.(row.(anchor)) in
          match Hashtbl.find_opt table v with
          | None -> ()
          | Some candidates ->
            List.iter
              (fun t ->
                incr comparisons;
                if matches ~data ~row ~r ~t others then emit row t)
              candidates)
        !rows);
    placed.(r) <- true;
    rows := Array.of_list (List.rev !out);
    let stat =
      {
        inner_relation = r;
        output_rows = Array.length !rows;
        probe_comparisons = !comparisons;
      }
    in
    (match on_step with None -> () | Some f -> f stat);
    steps := stat :: !steps
  done;
  (match on_row with None -> () | Some f -> Array.iter f !rows);
  {
    row_count = Array.length !rows;
    steps = List.rev !steps;
    first_card = Relation_data.cardinality data.(first);
  }

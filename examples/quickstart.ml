(* Quickstart: declare a query, optimize it, inspect the plan.

   Run with:  dune exec examples/quickstart.exe *)

open Ljqo_core

let () =
  (* A query can be written in the textual query description language... *)
  let text =
    {|
    # A six-way join: customers and their orders, items, suppliers.
    relation customer cardinality 10000 distinct 0.1;
    relation orders   cardinality 150000 distinct 0.07 select 0.34;
    relation lineitem cardinality 600000 distinct 0.05;
    relation part     cardinality 20000 distinct 0.2;
    relation supplier cardinality 1000 distinct 0.5;
    relation nation   cardinality 25 distinct 1.0;
    join customer orders;
    join orders lineitem;
    join lineitem part;
    join lineitem supplier;
    join supplier nation;
    |}
  in
  let query = Ljqo_qdl.Parser.parse text in
  Format.printf "Parsed %d relations, %d join predicates.@."
    (Ljqo_catalog.Query.n_relations query)
    (Ljqo_catalog.Query.n_joins query);

  (* ... and optimized with any of the paper's nine methods under a
     time budget proportional to N^2 (here the paper's largest, 9 N^2). *)
  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  let ticks =
    Budget.ticks_for_limit ~t_factor:9.0
      ~n_joins:(Ljqo_catalog.Query.n_relations query - 1)
      ()
  in
  let result = Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:7 query in

  let name i =
    (Ljqo_catalog.Query.relation query i).Ljqo_catalog.Relation.name
  in
  Format.printf "Best plan found by IAI: %s@."
    (String.concat " |><| " (List.map name (Array.to_list result.plan)));
  Format.printf "Estimated cost %.4g (admissible lower bound %.4g).@."
    result.cost result.lower_bound;

  (* Per-step estimates show how the optimizer keeps intermediates small. *)
  let e = Ljqo_cost.Plan_cost.eval model query result.plan in
  Array.iteri
    (fun i r ->
      Format.printf "  step %d: + %-9s -> %10.4g tuples@." i (name r) e.cards.(i))
    result.plan;

  (* Execute the plan for real on synthetic data matching the statistics. *)
  let rng = Ljqo_stats.Rng.create 11 in
  let data = Ljqo_exec.Relation_data.generate_all query ~rng in
  let exec = Ljqo_exec.Executor.run query ~data result.plan in
  Format.printf "Executed: %d result rows (per-step actual sizes: %s).@."
    exec.row_count
    (String.concat ", "
       (List.map string_of_int (Ljqo_exec.Executor.cardinalities exec)))

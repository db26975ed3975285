(* "Push selections down" executed for real: synthesize relations at base
   cardinality, run the selection predicates tuple by tuple, compare the
   observed selectivities with the catalog model, then join the filtered
   tables with the optimized plan.

   Run with:  dune exec examples/selection_pipeline.exe *)

open Ljqo_core
open Ljqo_catalog

let () =
  let text =
    {|
    relation store    cardinality 200   distinct 0.5;
    relation product  cardinality 5000  distinct 0.2  select 0.34;
    relation sale     cardinality 80000 distinct 0.05 select 0.2 select 0.5;
    relation customer cardinality 12000 distinct 0.1  select 0.34;
    join store sale;
    join product sale;
    join sale customer;
    |}
  in
  let query = Ljqo_qdl.Parser.parse text in
  let rng = Ljqo_stats.Rng.create 17 in

  Format.printf "Executing selections (predicate: attr < selectivity):@.";
  let bases =
    List.init (Query.n_relations query) (fun rel ->
        Ljqo_exec.Pipeline.generate_base query ~rel ~rng:(Ljqo_stats.Rng.split rng))
  in
  List.iter
    (fun (t : Ljqo_exec.Pipeline.base_table) ->
      let r = Query.relation query t.relation in
      let modeled =
        List.fold_left ( *. ) 1.0 r.Relation.selection_selectivities
      in
      Format.printf "  %-9s %6d base rows, selectivity modeled %.3f, observed %.3f@."
        r.Relation.name t.base_rows modeled
        (Ljqo_exec.Pipeline.selectivity_observed query t))
    bases;

  let data =
    Array.of_list (List.map (Ljqo_exec.Pipeline.select query) bases)
  in

  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in
  let ticks =
    Budget.ticks_for_limit ~t_factor:9.0 ~n_joins:(Query.n_relations query - 1) ()
  in
  let r = Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:4 query in
  Format.printf "@.Optimized plan:@.%s@."
    (Plan_render.render_plan ~model query r.plan);

  let result = Ljqo_exec.Executor.run query ~data r.plan in
  let est = (Ljqo_cost.Plan_cost.eval model query r.plan).cards in
  Format.printf "step sizes (estimated vs executed):@.";
  List.iteri
    (fun i actual -> Format.printf "  step %d: %10.4g vs %8d@." i est.(i) actual)
    (Ljqo_exec.Executor.cardinalities result);
  Format.printf "final join result: %d rows@." result.row_count

(* View-expansion / logic-programming workload: deeply nested views (or a
   linear recursive rule unrolled) expand into a long *chain* of joins —
   [KBZ86]'s motivating "hundreds of joins" scenario and the paper's
   "graph-chain" benchmark variation.

   Builds a 40-join chain, shows that the constructive heuristics shine on
   trees (KBZ's algorithm R is exact on chains for its ASI surrogate), that
   IAI improves on KBZ's plan only at a generous time limit, and executes
   the optimized plan, printing each step's estimated and actual size.

   Run with:  dune exec examples/view_chain.exe *)

open Ljqo_core
open Ljqo_catalog

let build_chain ~length ~rng =
  (* High distinct fractions keep per-join growth near 1, the regime where a
     long chain stays executable and ordering decides by which constant.
     No view is small, even after a selection, so no intermediate of a good
     plan falls below a couple of hundred rows: an intermediate of a few
     dozen rows, joined on random data with growth near 1, empties within
     a few joins. *)
  let relations =
    Array.init length (fun i ->
        let card = 400 + Ljqo_stats.Rng.int rng 400 in
        Relation.make ~id:i
          ~name:(Printf.sprintf "v%02d" i)
          ~base_cardinality:card
          ~selections:(if i mod 3 = 0 then [ 0.7 ] else [])
          ~distinct_fraction:(0.75 +. Ljqo_stats.Rng.float rng 0.2)
          ())
  in
  let edges =
    List.init (length - 1) (fun i ->
        let sel =
          1.0
          /. Float.max
               (Relation.distinct_values relations.(i))
               (Relation.distinct_values relations.(i + 1))
        in
        { Join_graph.u = i; v = i + 1; selectivity = sel })
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:length edges)

let () =
  let rng = Ljqo_stats.Rng.create 80 in
  let query = build_chain ~length:41 ~rng in
  let n_joins = Query.n_relations query - 1 in
  Format.printf "Chain of %d views (%d joins).@." (n_joins + 1) n_joins;

  let model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in

  (* Pure heuristics first: one augmentation state and one KBZ sweep. *)
  let aug =
    Augmentation.generate query Augmentation.default_criterion
      ~start:(List.hd (Augmentation.starts query))
  in
  let tree = Kbz.spanning_tree query Kbz.default_weighting in
  let kbz_best =
    List.fold_left
      (fun acc root ->
        let p = Kbz.optimal_for_root query ~tree ~root in
        Float.min acc (Ljqo_cost.Plan_cost.total model query p))
      infinity (Augmentation.starts query)
  in
  Format.printf "augmentation state cost: %.6g@."
    (Ljqo_cost.Plan_cost.total model query aug);
  Format.printf "KBZ best-of-roots cost:  %.6g@." kbz_best;

  (* The paper's recommended method, at increasing time limits. *)
  List.iter
    (fun t_factor ->
      let ticks = Budget.ticks_for_limit ~t_factor ~n_joins () in
      let r = Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:3 query in
      Format.printf "IAI at %4.2g N^2: cost %.6g (ticks used %d)@." t_factor r.cost
        r.ticks_used)
    [ 0.3; 1.5; 9.0 ];

  (* Chains are where plans stay executable: run the best plan end to end. *)
  let ticks = Budget.ticks_for_limit ~t_factor:9.0 ~n_joins () in
  let r = Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:3 query in
  let data =
    Ljqo_exec.Relation_data.generate_all query ~rng:(Ljqo_stats.Rng.create 9)
  in
  let est = (Ljqo_cost.Plan_cost.eval model query r.plan).cards in
  (try
     let exec = Ljqo_exec.Executor.run ~max_rows:2_000_000 query ~data r.plan in
     Format.printf "executed optimized plan: %d result rows@." exec.row_count;
     List.iteri
       (fun i actual ->
         Format.printf "  step %2d: + v%02d  est %10.4g  actual %8d@." i r.plan.(i)
           est.(i) actual)
       (Ljqo_exec.Executor.cardinalities exec)
   with Ljqo_exec.Executor.Result_too_large n ->
     Format.printf "executed optimized plan: aborted at %d rows@." n)

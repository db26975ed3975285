(* Bringing your own cost model: every optimizer in the library is
   parametric in Cost_model.S, so a user can describe their own execution
   environment.  Here: a network-attached-storage model where every page
   touch pays a high fixed latency, making small intermediate results far
   more valuable than under the local-disk model.

   Run with:  dune exec examples/custom_cost_model.exe *)

open Ljqo_core
module Qgen = Ljqo_querygen.Benchmark

(* Pages cost 40x a local-disk page (network round trips), but CPU is
   modern and cheap. *)
module Nas_model : Ljqo_cost.Cost_model.S = struct
  let name = "network-attached-storage"

  let page_tuples = 64.0

  let pages card = Float.max 1.0 (ceil (card /. page_tuples))

  let latency = 40.0

  (* The step's inputs arrive in a flat float record the caller reuses for
     every step; the model writes its price to the record's [cost] field. *)
  let join_cost ~is_first:_ ~is_cross (j : Ljqo_cost.Cost_model.join_input) =
    let io = pages j.inner_card +. pages j.outer_card +. pages j.output_card in
    let cpu =
      if is_cross then 1e-4 *. j.outer_card *. j.inner_card
      else 1e-4 *. (j.outer_card +. j.inner_card +. j.output_card)
    in
    j.cost <- (latency *. io) +. cpu

  let scan_cost ~card = latency *. pages card

  let output_cost ~card = latency *. pages card
end

let () =
  let rng = Ljqo_stats.Rng.create 31 in
  let query = Qgen.generate_query Qgen.default ~n_joins:25 ~rng in
  let n_joins = Ljqo_catalog.Query.n_relations query - 1 in
  let ticks = Budget.ticks_for_limit ~t_factor:9.0 ~n_joins () in

  let optimize model =
    Optimizer.optimize ~method_:Methods.IAI ~model ~ticks ~seed:8 query
  in
  let nas = (module Nas_model : Ljqo_cost.Cost_model.S) in
  let mem = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S) in

  let r_nas = optimize nas in
  let r_mem = optimize mem in

  Format.printf "Optimized the same 25-join query under two cost models.@.@.";
  Format.printf "NAS model:    cost %.4g, plan %s@." r_nas.cost
    (Plan.to_string r_nas.plan);
  Format.printf "memory model: cost %.4g, plan %s@." r_mem.cost
    (Plan.to_string r_mem.plan);

  (* Cross-evaluate: how good is each plan under the other model? *)
  let cross_nas = Ljqo_cost.Plan_cost.total nas query r_mem.plan in
  let cross_mem = Ljqo_cost.Plan_cost.total mem query r_nas.plan in
  Format.printf "@.memory-optimal plan under NAS: %.4g (%.2fx the NAS optimum)@."
    cross_nas (cross_nas /. r_nas.cost);
  Format.printf "NAS-optimal plan under memory: %.4g (%.2fx the memory optimum)@."
    cross_mem (cross_mem /. r_mem.cost);
  Format.printf
    "@.(The paper's Figure 7 finding — method ordering is cost-model\n\
    \ independent — does not mean the *plans* coincide.)@."

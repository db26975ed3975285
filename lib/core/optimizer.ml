open Ljqo_catalog
open Ljqo_cost
open Ljqo_stats

type result = {
  plan : Plan.t;
  cost : float;
  lower_bound : float;
  ticks_used : int;
  checkpoints : (int * float) list;
  converged : bool;
  timed_out : bool;
}

let time_limit_ticks ?ticks_per_unit ~t_factor ~query () =
  let n_joins = max 1 (Query.n_relations query - 1) in
  Budget.ticks_for_limit ?ticks_per_unit ~t_factor ~n_joins ()

let optimize_connected ?config ?(checkpoints = []) ?epsilon ?deadline ?clock
    ?calibration ?start ~method_ ~model ~ticks ~seed query =
  let ev =
    Evaluator.create ?epsilon ~checkpoints ?deadline ?clock ?calibration ~query
      ~model ~ticks ()
  in
  let rng = Rng.create seed in
  let converged =
    (* Methods.run swallows the stop exceptions; detect convergence from the
       incumbent afterwards. *)
    Methods.run ?config ?start method_ ev rng;
    match Evaluator.best ev with
    | Some (c, _) -> c <= (1.0 +. Option.value epsilon ~default:0.01) *. Evaluator.lower_bound ev
    | None -> false
  in
  match Evaluator.best ev with
  | None when Evaluator.deadline_hit ev ->
    (* The deadline fired before the method produced any plan at all; there
       is nothing to salvage, so let the caller's guard record a timeout. *)
    raise Budget.Deadline_exceeded
  | None ->
    (* The ticks ran out before the method recorded a plan: heuristic
       bookkeeping and start-state generation charge ticks too, so a tiny
       budget can end a run first.  A positive budget still returns a valid
       plan — one random valid plan drawn from the run's seed, costed once
       (the dead budget cannot take the charge, so it is added here). *)
    let plan = Random_plan.generate (Rng.create seed) query in
    let e = Plan_cost.eval ?calibration model query plan in
    {
      plan;
      cost = e.total;
      lower_bound = Evaluator.lower_bound ev;
      ticks_used = Evaluator.used ev + e.est_steps;
      checkpoints = Evaluator.checkpoint_costs ev;
      converged = false;
      timed_out = false;
    }
  | Some (cost, plan) ->
    {
      plan;
      cost;
      lower_bound = Evaluator.lower_bound ev;
      ticks_used = Evaluator.used ev;
      checkpoints = Evaluator.checkpoint_costs ev;
      converged;
      timed_out = Evaluator.deadline_hit ev;
    }

let optimize ?config ?checkpoints ?epsilon ?deadline ?clock ?calibration ?start
    ~method_ ~model ~ticks ~seed query =
  if ticks <= 0 then invalid_arg "Optimizer.optimize: ticks must be positive";
  let n = Query.n_relations query in
  if n = 0 then invalid_arg "Optimizer.optimize: empty query";
  (match start with
  | Some plan when not (Plan.is_valid query plan) ->
    invalid_arg "Optimizer.optimize: ?start is not a valid plan for this query"
  | _ -> ());
  if n = 1 then
    {
      plan = [| 0 |];
      cost = 0.0;
      lower_bound = 0.0;
      ticks_used = 0;
      checkpoints = [];
      converged = true;
      timed_out = false;
    }
  else
    match Join_graph.components (Query.graph query) with
    | [ _ ] ->
      optimize_connected ?config ?checkpoints ?epsilon ?deadline ?clock
        ?calibration ?start ~method_ ~model ~ticks ~seed query
    | comps ->
      (* Budget share proportional to squared component size. *)
      let sq c = let k = List.length c in k * k in
      let total_sq = List.fold_left (fun acc c -> acc + sq c) 0 comps in
      let parts =
        List.mapi
          (fun i comp ->
            let sub, back = Query.induced query comp in
            let share = max 1 (ticks * sq comp / max 1 total_sq) in
            if List.length comp = 1 then
              (Plan_cost.reference_final_cardinality sub, [| back.(0) |], 0, false)
            else begin
              let r =
                optimize_connected ?config ?epsilon ?deadline ?clock
                  ?calibration ~method_ ~model ~ticks:share
                  ~seed:(seed + (i * 7919)) sub
              in
              let mapped = Array.map (fun id -> back.(id)) r.plan in
              (Plan_cost.reference_final_cardinality sub, mapped, r.ticks_used, r.timed_out)
            end)
          comps
      in
      let ordered =
        List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) parts
      in
      let plan = Plan.concat (List.map (fun (_, p, _, _) -> p) ordered) in
      let cost = Plan_cost.total ?calibration model query plan in
      {
        plan;
        cost;
        lower_bound = Plan_cost.lower_bound model query;
        ticks_used = List.fold_left (fun acc (_, _, t, _) -> acc + t) 0 parts;
        checkpoints = [];
        converged = false;
        timed_out = List.exists (fun (_, _, _, to_) -> to_) parts;
      }

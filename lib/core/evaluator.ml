open Ljqo_catalog
open Ljqo_cost

exception Converged

type t = {
  query : Query.t;
  model : Cost_model.t;
  budget : Budget.t;
  lower_bound : float;
  epsilon : float;
  requested_checkpoints : int list;  (* ascending *)
  mutable snapshots : (int * float) list;  (* reversed *)
  mutable best : (float * Plan.t) option;
}

let create ?(epsilon = 0.01) ?(checkpoints = []) ?deadline ?clock ~query ~model
    ~ticks () =
  let budget = Budget.create ~checkpoints ?deadline ?clock ~ticks () in
  let t =
    {
      query;
      model;
      budget;
      lower_bound = Plan_cost.lower_bound model query;
      epsilon;
      requested_checkpoints = List.sort_uniq compare (List.filter (fun c -> c > 0) checkpoints);
      snapshots = [];
      best = None;
    }
  in
  Budget.set_checkpoint_callback budget (fun c ->
      let cost = match t.best with Some (b, _) -> b | None -> infinity in
      t.snapshots <- (c, cost) :: t.snapshots);
  t

let query t = t.query
let model t = t.model
let lower_bound t = t.lower_bound
let epsilon t = t.epsilon

let charge t k = Budget.charge t.budget k
let remaining t = Budget.remaining t.budget
let used t = Budget.used t.budget
let exhausted t = Budget.exhausted t.budget
let deadline_hit t = Budget.deadline_hit t.budget

let converged_cost t cost = cost <= (1.0 +. t.epsilon) *. t.lower_bound

let record t perm cost =
  let better = match t.best with None -> true | Some (b, _) -> cost < b in
  if better then begin
    t.best <- Some (cost, Array.copy perm);
    (* Pure observation: counters and trace events never consume ticks or
       RNG draws, so results are bit-identical with instrumentation off. *)
    Ljqo_obs.Obs.incumbent ~ticks:(Budget.used t.budget) ~cost;
    if Ljqo_obs.Obs.tracing () then
      Ljqo_obs.Obs.trace_sampled "incumbent" (fun () ->
          [ ("ticks", Ljqo_obs.Obs.I (Budget.used t.budget));
            ("cost", Ljqo_obs.Obs.F cost) ])
  end;
  if converged_cost t cost then raise Converged

let eval t perm =
  assert (Plan.is_valid t.query perm);
  Ljqo_obs.Obs.bump Ljqo_obs.Obs.Cost_evals;
  (* Record the result even when this charge crosses the limit: the paper's
     optimizer keeps the last solution computed within the limit. *)
  let result = Plan_cost.eval t.model t.query perm in
  (try Budget.charge t.budget result.est_steps
   with (Budget.Exhausted | Budget.Deadline_exceeded) as stop ->
     record t perm result.total;
     raise stop);
  record t perm result.total;
  result.total

let best t = match t.best with None -> None | Some (c, p) -> Some (c, Array.copy p)

let best_cost t =
  match t.best with
  | Some (c, _) -> c
  | None -> invalid_arg "Evaluator.best_cost: no plan recorded"

let checkpoint_costs t =
  let final = match t.best with Some (c, _) -> c | None -> infinity in
  let crossed = List.rev t.snapshots in
  List.map
    (fun c ->
      match List.assoc_opt c crossed with
      | Some cost -> (c, cost)
      | None -> (c, final))
    t.requested_checkpoints

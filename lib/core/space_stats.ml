open Ljqo_stats
open Ljqo_cost

type t = {
  n_samples : int;
  random_costs : float array;
  minima_costs : float array;
}

let sample ?(n_samples = 200) ?(n_descents = 20) ~seed model query =
  if n_samples < 1 then invalid_arg "Space_stats.sample: n_samples < 1";
  let rng = Rng.create seed in
  let plans =
    Array.init n_samples (fun _ -> Random_plan.generate rng query)
  in
  let random_costs = Array.map (fun p -> Plan_cost.total model query p) plans in
  let minima = ref [] in
  for k = 0 to min n_descents n_samples - 1 do
    let ev = Evaluator.create ~query ~model ~ticks:200_000 () in
    (try
       let st = Search_state.init ev plans.(k) in
       Iterative_improvement.descend st (Rng.split rng)
     with Budget.Exhausted | Evaluator.Converged -> ());
    match Evaluator.best ev with
    | Some (c, _) -> minima := c :: !minima
    | None -> ()
  done;
  let minima_costs = Array.of_list !minima in
  Array.sort compare random_costs;
  Array.sort compare minima_costs;
  { n_samples; random_costs; minima_costs }

type summary = {
  minimum : float;
  median : float;
  p90 : float;
  maximum : float;
  spread : float;
}

let summarize costs =
  if Array.length costs = 0 then invalid_arg "Space_stats.summarize: empty input";
  let minimum, maximum = Summary.min_max costs in
  let median = Summary.median costs in
  {
    minimum;
    median;
    p90 = Summary.percentile costs 90.0;
    maximum;
    spread = median /. Float.max 1e-30 minimum;
  }

let local_minima_spread t =
  if Array.length t.minima_costs < 2 then None
  else
    let s = summarize t.minima_costs in
    Some (s.p90 /. Float.max 1e-30 s.minimum)

let pp ppf t =
  let pp_summary ppf (s : summary) =
    Format.fprintf ppf "min %.4g | median %.4g | p90 %.4g | max %.4g | spread %.3gx"
      s.minimum s.median s.p90 s.maximum s.spread
  in
  Format.fprintf ppf "@[<v>random valid plans (%d): %a@,"
    (Array.length t.random_costs) pp_summary (summarize t.random_costs);
  if Array.length t.minima_costs > 0 then
    Format.fprintf ppf "II local minima (%d):     %a@]"
      (Array.length t.minima_costs) pp_summary (summarize t.minima_costs)
  else Format.fprintf ppf "II local minima: (none sampled)@]"

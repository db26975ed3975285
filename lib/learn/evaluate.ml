module Methods = Ljqo_core.Methods
module Optimizer = Ljqo_core.Optimizer
module Parallel = Ljqo_stats.Parallel
module Scaled_cost = Ljqo_stats.Scaled_cost
module Benchmark = Ljqo_querygen.Benchmark
module Workload = Ljqo_querygen.Workload

type row = { variation : string; means : (string * float) list }

type report = {
  methods : string list;
  rows : row list;
  overall : (string * float) list;
  route_counts : (string * int) list;
}

let compared = Model.routes

let adaptive_name = Methods.name Methods.Adaptive

let method_names = List.map Methods.name compared @ [ adaptive_name ]

let run ?jobs ~ns ~per_n ~seed ~t_factor ~cost_model model =
  let n_methods = List.length method_names in
  (* scaled.(m) collects every query's scaled cost for method column m,
     across all variations, for the overall row. *)
  let all_scaled = Array.make n_methods [] in
  let route_tally = Hashtbl.create 8 in
  let rows =
    List.map
      (fun vi ->
        let spec = Benchmark.by_index vi in
        let wl = Workload.make ~ns ~per_n ~seed:(seed + (vi * 101)) spec in
        let per_query =
          Parallel.map_array ?jobs
            (fun (entry : Workload.entry) ->
              let q = entry.Workload.query in
              let base = Optimizer.time_limit_ticks ~t_factor ~query:q () in
              let cell_seed = seed + (vi * 16381) + (entry.Workload.index * 1009) in
              let cost_of m ticks =
                (Optimizer.optimize ~method_:m ~model:cost_model ~ticks
                   ~seed:cell_seed q)
                  .Optimizer.cost
              in
              let fixed_costs = List.map (fun m -> cost_of m base) compared in
              let a_method, a_ticks, resolution =
                Router.resolve model Methods.Adaptive q ~ticks:base
              in
              let route =
                if resolution = Router.Fallback then "fallback"
                else Methods.name a_method
              in
              let a_cost = cost_of a_method a_ticks in
              (Array.of_list (fixed_costs @ [ a_cost ]), route))
            wl.Workload.entries
        in
        let scaled = Array.make n_methods [] in
        Array.iter
          (fun (costs, route) ->
            Hashtbl.replace route_tally route
              (1 + Option.value ~default:0 (Hashtbl.find_opt route_tally route));
            let best = Array.fold_left Float.min costs.(0) costs in
            Array.iteri
              (fun m c ->
                let s =
                  if best > 0.0 then Scaled_cost.coerce (Scaled_cost.scale ~best c)
                  else 1.0
                in
                scaled.(m) <- s :: scaled.(m);
                all_scaled.(m) <- s :: all_scaled.(m))
              costs)
          per_query;
        let means =
          List.mapi
            (fun m name ->
              let vs = Array.of_list (List.rev scaled.(m)) in
              ( name,
                Array.fold_left ( +. ) 0.0 vs /. float_of_int (Array.length vs) ))
            method_names
        in
        { variation = spec.Benchmark.name; means })
      (List.init 9 (fun i -> i + 1))
  in
  let overall =
    List.mapi
      (fun m name ->
        let vs = Array.of_list (List.rev all_scaled.(m)) in
        (name, Array.fold_left ( +. ) 0.0 vs /. float_of_int (Array.length vs)))
      method_names
  in
  let route_counts =
    List.sort compare
      (Hashtbl.fold (fun r c acc -> (r, c) :: acc) route_tally [])
  in
  { methods = method_names; rows; overall; route_counts }

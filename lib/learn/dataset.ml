module Jsonv = Ljqo_obs.Jsonv
module Methods = Ljqo_core.Methods
module Optimizer = Ljqo_core.Optimizer
module Parallel = Ljqo_stats.Parallel
module Benchmark = Ljqo_querygen.Benchmark
module Workload = Ljqo_querygen.Workload

type sample = {
  features : float array;
  route : string;
  ticks : int;
  cost : float;
  lower_bound : float;
}

let target s = log10 (Float.max 1.0 (s.cost /. s.lower_bound))

let usable s =
  s.lower_bound > 0.0
  && Float.is_finite s.lower_bound
  && Float.is_finite s.cost
  && s.cost >= 0.0
  && s.ticks > 0

let to_json_line s =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"features\":[";
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%.17g" v))
    s.features;
  Buffer.add_string b "],\"route\":";
  Jsonv.write_string b s.route;
  Buffer.add_string b (Printf.sprintf ",\"ticks\":%d" s.ticks);
  Buffer.add_string b (Printf.sprintf ",\"cost\":%.17g" s.cost);
  Buffer.add_string b (Printf.sprintf ",\"lb\":%.17g" s.lower_bound);
  Buffer.add_char b '}';
  Buffer.contents b

let save_jsonl ~path samples =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_json_line s);
          output_char oc '\n')
        samples)

(* Raw trajectory JSONL — the bench harness's --trajectories output, one
   {"label":..,"points":[[ticks,cost],..]} object per labelled run: the
   serialized form of [Obs.trajectories ()]. *)

let trajectory_to_json_line (label, points) =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"label\":";
  Jsonv.write_string b label;
  Buffer.add_string b ",\"points\":[";
  List.iteri
    (fun i (t, c) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "[%d,%.17g]" t c))
    points;
  Buffer.add_string b "]}";
  Buffer.contents b

let save_trajectories ~path trajs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun t ->
          output_string oc (trajectory_to_json_line t);
          output_char oc '\n')
        trajs)

let collect ?jobs ~spec_indices ~ns ~per_n ~seed ~t_factor ~routes ~fractions
    ~model () =
  let cells =
    List.concat_map
      (fun spec_idx ->
        let spec = Benchmark.by_index spec_idx in
        let wl = Workload.make ~ns ~per_n ~seed:(seed + (spec_idx * 101)) spec in
        Array.to_list wl.Workload.entries
        |> List.concat_map (fun entry ->
               List.concat_map
                 (fun (ri, route) ->
                   List.mapi
                     (fun fi fraction -> (spec_idx, entry, ri, route, fi, fraction))
                     fractions)
                 (List.mapi (fun ri route -> (ri, route)) routes)))
      spec_indices
  in
  let run (spec_idx, entry, ri, route, fi, fraction) =
    let q = entry.Workload.query in
    let base =
      Optimizer.time_limit_ticks ~t_factor ~query:q ()
    in
    let ticks = max 1 (int_of_float (fraction *. float_of_int base)) in
    let cell_seed =
      seed + (spec_idx * 16381) + (entry.Workload.index * 1009) + (ri * 277)
      + (fi * 89)
    in
    let r = Optimizer.optimize ~method_:route ~model ~ticks ~seed:cell_seed q in
    {
      features = Features.of_query q;
      route = Methods.name route;
      ticks;
      cost = r.Optimizer.cost;
      lower_bound = Ljqo_cost.Plan_cost.lower_bound model q;
    }
  in
  Array.to_list (Parallel.map_array ?jobs run (Array.of_list cells))

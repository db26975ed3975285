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

let of_json_line line =
  let ( let* ) = Result.bind in
  let* j = Jsonv.parse line in
  let field name =
    match Jsonv.member name j with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let num name =
    let* v = field name in
    match v with
    | Jsonv.Num f when Float.is_finite f -> Ok f
    | _ -> Error (Printf.sprintf "field %S is not a finite number" name)
  in
  let* features = field "features" in
  let* features =
    match features with
    | Jsonv.List vs ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Jsonv.Num f :: tl when Float.is_finite f -> go (f :: acc) tl
        | _ -> Error "field \"features\" has a non-numeric entry"
      in
      let* fs = go [] vs in
      let arr = Array.of_list fs in
      if Array.length arr <> Features.dim then
        Error
          (Printf.sprintf "feature width %d, expected %d" (Array.length arr)
             Features.dim)
      else Ok arr
    | _ -> Error "field \"features\" is not a list"
  in
  let* route = field "route" in
  let* route =
    match route with
    | Jsonv.Str s when Methods.of_name s <> None -> Ok s
    | Jsonv.Str s -> Error (Printf.sprintf "unknown route %S" s)
    | _ -> Error "field \"route\" is not a string"
  in
  let* ticks = num "ticks" in
  let* ticks =
    if Float.is_integer ticks && ticks >= 1.0 && ticks <= 1e15 then
      Ok (int_of_float ticks)
    else Error "field \"ticks\" is not a positive integer"
  in
  let* cost = num "cost" in
  let* lower_bound = num "lb" in
  Ok { features; route; ticks; cost; lower_bound }

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

let load_jsonl ~path =
  match open_in path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> Ok (List.rev acc)
          | line -> (
            match of_json_line line with
            | Ok s -> go (lineno + 1) (s :: acc)
            | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
        in
        go 1 [])

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

(* "q<index>.<method>.r<replicate>" — Driver.run_label's format.  Strict:
   every segment must parse and nothing may trail. *)
let parse_run_label label =
  match String.split_on_char '.' label with
  | [ q; m; r ]
    when String.length q > 1
         && q.[0] = 'q'
         && String.length r > 1
         && r.[0] = 'r' ->
    let int_of s =
      match int_of_string_opt s with Some v when v >= 0 -> Some v | _ -> None
    in
    let idx = int_of (String.sub q 1 (String.length q - 1)) in
    let rep = int_of (String.sub r 1 (String.length r - 1)) in
    (match (idx, Methods.of_name m, rep) with
    | Some i, Some _, Some rep -> Some (i, m, rep)
    | _ -> None)
  | _ -> None

let of_trajectories ~model ~query_of_index trajs =
  List.filter_map
    (fun (label, points) ->
      match (parse_run_label label, List.rev points) with
      | Some (idx, route, _), (ticks, cost) :: _ -> (
        match query_of_index idx with
        | Some q ->
          Some
            {
              features = Features.of_query q;
              route;
              ticks;
              cost;
              lower_bound = Ljqo_cost.Plan_cost.lower_bound model q;
            }
        | None -> None)
      | _ -> None)
    trajs

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

module Methods = Ljqo_core.Methods
module Obs = Ljqo_obs.Obs

let fractions = [ 0.25; 0.5; 1.0 ]

let margin = 0.05

(* Tie-break priority among routes predicted equally good: the portfolio is
   the robust choice, then the standalone methods. *)
let priority = function
  | Methods.Portfolio -> 0
  | Methods.II -> 1
  | Methods.SA -> 2
  | Methods.Two_phase -> 3
  | _ -> 4

let decide model query ~ticks =
  let features = Features.of_query query in
  if not (Model.in_range model features) then None
  else begin
    let candidates =
      List.concat_map
        (fun route ->
          let name = Methods.name route in
          List.filter_map
            (fun f ->
              let t = max 1 (int_of_float (f *. float_of_int ticks)) in
              match Model.predict model ~route:name ~features ~ticks:t with
              | Some pred when Float.is_finite pred -> Some (pred, f, route, t)
              | _ -> None)
            fractions)
        Model.routes
    in
    match candidates with
    | [] -> None
    | _ ->
      let best =
        List.fold_left
          (fun acc (p, _, _, _) -> Float.min acc p)
          infinity candidates
      in
      let survivors =
        List.filter (fun (p, _, _, _) -> p <= best +. margin) candidates
      in
      let better (p1, f1, r1, _) (p2, f2, r2, _) =
        (* larger budget first, then route priority, then prediction *)
        if f1 <> f2 then f1 > f2
        else if priority r1 <> priority r2 then priority r1 < priority r2
        else p1 < p2
      in
      let pick =
        List.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some a -> if better c a then Some c else acc)
          None survivors
      in
      Option.map (fun (_, _, route, t) -> (route, t)) pick
  end

type resolution = Fixed | Routed | Fallback

let resolve model method_ query ~ticks =
  match method_ with
  | Methods.Adaptive -> (
    match Option.bind model (fun md -> decide md query ~ticks) with
    | Some (m, t) -> (m, max 1 (min t ticks), Routed)
    | None -> (Methods.Portfolio, ticks, Fallback))
  | m -> (m, ticks, Fixed)

let route_counter = function
  | Methods.II -> Obs.Learn_route_ii
  | Methods.SA -> Obs.Learn_route_sa
  | Methods.Two_phase -> Obs.Learn_route_2po
  | _ -> Obs.Learn_route_portfolio

let bump m = function
  | Routed -> Obs.bump (route_counter m)
  | Fallback -> Obs.bump Obs.Learn_route_fallback
  | Fixed -> ()

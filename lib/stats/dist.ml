type 'a t = Rng.t -> 'a

let sample d rng = d rng

let constant v _ = v

let int_range lo hi =
  if lo >= hi then invalid_arg "Dist.int_range: empty range";
  fun rng -> Rng.int_in rng lo (hi - 1)

let float_range lo hi =
  if lo >= hi then invalid_arg "Dist.float_range: empty range";
  fun rng -> lo +. Rng.float rng (hi -. lo)

let mixture components =
  match components with
  | [] -> invalid_arg "Dist.mixture: no components"
  | _ ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 components in
    if total <= 0.0 then invalid_arg "Dist.mixture: non-positive total weight";
    fun rng ->
      let x = Rng.float rng total in
      let rec pick acc = function
        | [] -> assert false
        | [ (_, d) ] -> d rng
        | (w, d) :: rest ->
          let acc = acc +. w in
          if x < acc then d rng else pick acc rest
      in
      pick 0.0 components

let of_list values =
  match values with
  | [] -> invalid_arg "Dist.of_list: empty list"
  | _ ->
    let a = Array.of_list values in
    fun rng -> Rng.choose rng a

let map f d rng = f (d rng)

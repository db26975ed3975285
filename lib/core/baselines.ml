let random_sampling ev rng =
  let rec loop () =
    let plan = Random_plan.generate_charged ev rng in
    ignore (Evaluator.eval ev plan);
    loop ()
  in
  loop ()

let perturbation_walk ?(mix = Move.default_mix) ev rng =
  let rec one_walk () =
    let start = Random_plan.generate_charged ev rng in
    let state = Search_state.init ev start in
    let n = Search_state.n state in
    if n < 2 then ()
    else begin
      let nb = Neighborhood.create state in
      let steps = 8 * n * n in
      for _ = 1 to steps do
        let move = Move.random ~mix rng ~n in
        match Neighborhood.consider nb move with
        | None -> ()
        | Some _ ->
          (* accept unconditionally; remember the best state visited *)
          Neighborhood.accept nb;
          Search_state.commit state
      done;
      one_walk ()
    end
  in
  one_walk ()

type steepest_params = {
  batch : int;
  patience_batches : int;
  mix : Move.mix;
}

let default_steepest_params =
  { batch = 8; patience_batches = 0 (* resolved per query *); mix = Move.default_mix }

let steepest_descent ?(params = default_steepest_params) ev rng =
  let rec one_descent () =
    let start = Random_plan.generate_charged ev rng in
    let state = Search_state.init ev start in
    let n = Search_state.n state in
    if n < 2 then ()
    else begin
      let nb = Neighborhood.create state in
      let patience =
        if params.patience_batches > 0 then params.patience_batches else n
      in
      let failures = ref 0 in
      while !failures < patience do
        (* Sample a batch of neighbours, remember the best improving one. *)
        let before = Search_state.cost state in
        let best_move = ref None in
        for _ = 1 to params.batch do
          let move = Move.random ~mix:params.mix rng ~n in
          match Neighborhood.consider nb move with
          | None -> ()
          | Some total ->
            Neighborhood.reject nb;
            (match !best_move with
            | Some (_, bt) when bt <= total -> ()
            | _ -> if total < before then best_move := Some (move, total))
        done;
        match !best_move with
        | None -> incr failures
        | Some (move, _) -> (
          match Neighborhood.consider nb move with
          | Some _ ->
            Neighborhood.accept nb;
            Search_state.commit state;
            failures := 0
          | None -> incr failures)
      done;
      one_descent ()
    end
  in
  one_descent ()

type t = Random_sampling | Perturbation_walk | Steepest_descent

let all = [ Random_sampling; Perturbation_walk; Steepest_descent ]

let name = function
  | Random_sampling -> "RAND"
  | Perturbation_walk -> "WALK"
  | Steepest_descent -> "SDII"

let run t ev rng =
  try
    match t with
    | Random_sampling -> random_sampling ev rng
    | Perturbation_walk -> perturbation_walk ev rng
    | Steepest_descent -> steepest_descent ev rng
  with Budget.Exhausted | Evaluator.Converged -> ()

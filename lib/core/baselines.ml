let random_sampling ev rng =
  let rec loop () =
    let plan = Random_plan.generate_charged ev rng in
    ignore (Evaluator.eval ev plan);
    loop ()
  in
  loop ()

let perturbation_walk ev rng =
  let rec one_walk () =
    let start = Random_plan.generate_charged ev rng in
    let state = Search_state.init ev start in
    let n = Search_state.n state in
    if n < 2 then ()
    else begin
      let nb = Neighborhood.create state in
      let steps = 8 * n * n in
      for _ = 1 to steps do
        let move = Move.random rng ~n in
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

(* Steepest-descent II: each step samples 8 neighbours and takes the best
   improving one; [n] consecutive batches without an improving neighbour
   end a descent. *)
let steepest_descent ev rng =
  let rec one_descent () =
    let start = Random_plan.generate_charged ev rng in
    let state = Search_state.init ev start in
    let n = Search_state.n state in
    if n < 2 then ()
    else begin
      let nb = Neighborhood.create state in
      let failures = ref 0 in
      while !failures < n do
        (* Sample a batch of neighbours, remember the best improving one. *)
        let before = Search_state.cost state in
        let best_move = ref None in
        for _ = 1 to 8 do
          let move = Move.random rng ~n in
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

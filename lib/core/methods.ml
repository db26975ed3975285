type t =
  | II
  | SA
  | SAA
  | SAK
  | IAI
  | IKI
  | IAL
  | AGI
  | KBI
  | Two_phase
  | Portfolio

let all = [ II; SA; SAA; SAK; IAI; IKI; IAL; AGI; KBI ]

let top_five = [ IAI; IAL; AGI; KBI; II ]

let selectable = all @ [ Two_phase; Portfolio ]

let name = function
  | II -> "II"
  | SA -> "SA"
  | SAA -> "SAA"
  | SAK -> "SAK"
  | IAI -> "IAI"
  | IKI -> "IKI"
  | IAL -> "IAL"
  | AGI -> "AGI"
  | KBI -> "KBI"
  | Two_phase -> "2PO"
  | Portfolio -> "portfolio"

let of_name s =
  match String.uppercase_ascii s with
  | "II" -> Some II
  | "SA" -> Some SA
  | "SAA" -> Some SAA
  | "SAK" -> Some SAK
  | "IAI" -> Some IAI
  | "IKI" -> Some IKI
  | "IAL" -> Some IAL
  | "AGI" -> Some AGI
  | "KBI" -> Some KBI
  | "2PO" -> Some Two_phase
  | "PORTFOLIO" -> Some Portfolio
  | _ -> None

type config = {
  ii_params : Iterative_improvement.params;
  sa_params : Simulated_annealing.params;
  augmentation_criterion : Augmentation.criterion;
  kbz_weighting : Kbz.weighting;
  portfolio_params : Portfolio.params;
}

let default_config =
  {
    ii_params = Iterative_improvement.default_params;
    sa_params = Simulated_annealing.default_params;
    augmentation_criterion = Augmentation.default_criterion;
    kbz_weighting = Kbz.default_weighting;
    portfolio_params = Portfolio.default_params;
  }

module Obs = Ljqo_obs.Obs

(* An endless random-start source. *)
let random_starts ev rng () = Some (Random_plan.generate_charged ev rng)

(* A source that drains [first] then falls back to [second]. *)
let chain_sources first second () =
  match first () with Some s -> Some s | None -> second ()

(* Attribute a heuristic source's work (augmentation states, KBZ orderings)
   to the [Heuristic] phase even when the pull happens inside an II loop. *)
let heuristic_phase source () = Obs.with_phase Obs.Heuristic source

(* Evaluate every state a source yields (used by AGI / KBI, where heuristic
   states compete directly with the local minima). *)
let drain_and_eval ev source =
  Obs.with_phase Obs.Heuristic (fun () ->
      let rec go () =
        match source () with
        | None -> ()
        | Some perm ->
          ignore (Evaluator.eval ev perm);
          go ()
      in
      go ())

let run_inner config ?start:warm method_ ev rng =
  let ii ?start starts =
    Iterative_improvement.run ~params:config.ii_params ?start ev rng ~starts
  in
  (* II-driven methods descend the warm start first, inside [ii]; the
     pure-SA methods anneal from it instead of their usual seed; the
     drain-first methods (AGI/KBI) record it as the incumbent before the
     heuristic sweep, so the cached plan survives even a budget that dies
     mid-drain. *)
  let seed_incumbent () =
    Option.iter (fun plan -> ignore (Evaluator.eval ev plan)) warm
  in
  let sa start =
    let start = Option.value warm ~default:start in
    Simulated_annealing.run ~params:config.sa_params ev rng ~start
      ~restarts:(random_starts ev rng)
  in
  let augmentation_source () =
    heuristic_phase
      (Augmentation.make_source ~criterion:config.augmentation_criterion ev)
  in
  let kbz_source () =
    heuristic_phase (Kbz.make_source ~weighting:config.kbz_weighting ev)
  in
  match method_ with
  | II -> ii ?start:warm (random_starts ev rng)
  | SA -> begin
    match warm with
    | Some w -> sa w
    | None -> sa (Random_plan.generate_charged ev rng)
  end
  | SAA -> begin
    match augmentation_source () () with
    | Some start -> sa start
    | None -> Option.iter sa warm
  end
  | SAK -> begin
    match kbz_source () () with
    | Some start -> sa start
    | None -> Option.iter sa warm
  end
  | IAI ->
    ii ?start:warm (chain_sources (augmentation_source ()) (random_starts ev rng))
  | IKI -> ii ?start:warm (chain_sources (kbz_source ()) (random_starts ev rng))
  | IAL ->
    (* II over the augmentation states only, then local improvement on the
       incumbent, then random-start II soaks up any remaining time. *)
    ii ?start:warm (augmentation_source ());
    (match Evaluator.best ev with
    | Some (_, best_perm) ->
      Obs.with_phase Obs.Local (fun () ->
          let state = Search_state.init ev best_perm in
          Local_improvement.auto state)
    | None -> ());
    ii (random_starts ev rng)
  | AGI ->
    seed_incumbent ();
    drain_and_eval ev (augmentation_source ());
    ii (random_starts ev rng)
  | KBI ->
    seed_incumbent ();
    drain_and_eval ev (kbz_source ());
    ii (random_starts ev rng)
  | Two_phase ->
    let params =
      {
        Two_phase.default_params with
        Two_phase.ii_params = config.ii_params;
        sa_params = config.sa_params;
      }
    in
    Two_phase.run ~params ?start:warm ev rng
  | Portfolio ->
    Portfolio.run ~params:config.portfolio_params ~ii_params:config.ii_params
      ~sa_params:config.sa_params ?start:warm ev rng

let run ?(config = default_config) ?start method_ ev rng =
  (match start with
  | Some plan when not (Plan.is_valid (Evaluator.query ev) plan) ->
    invalid_arg "Methods.run: ?start is not a valid plan for this query"
  | Some _ -> Obs.bump Obs.Warm_starts_used
  | None -> ());
  (* A wall-clock deadline ends the run like tick exhaustion does — the
     incumbent survives — but the evaluator remembers ([deadline_hit]) so the
     harness can record the run as timed-out. *)
  try run_inner config ?start method_ ev rng with
  | Budget.Exhausted | Evaluator.Converged | Budget.Deadline_exceeded -> ()

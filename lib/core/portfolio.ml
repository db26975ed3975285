open Ljqo_stats
module Obs = Ljqo_obs.Obs

(* Portfolio racing: [width] replicates — II, SA and two-phase legs — race
   across domains in [rounds] synchronized rounds, exchanging the incumbent
   at each round barrier.

   Determinism is the whole design.  Each replicate owns a persistent RNG
   stream split from the caller's seed ([Rng.split_at rng i], which does not
   advance the parent), runs against a private sub-evaluator with a fixed
   tick slice, and never communicates except at the barrier.  The barrier
   itself folds replicate results in replicate order on the calling domain.
   Every input to every leg — seed, start plan, tick slice — is therefore a
   pure function of (parent seed, replicate index, round, incumbent at the
   previous barrier), so the outcome is bit-identical whatever the job
   count ([Parallel.map_array] only decides which domain runs which
   replicate, never the results or their fold order).  What the legs add to
   the observability snapshot is domain-independent too: each runs under
   [Obs.sub_run] with the caller's phase, so its ticks land in the same
   phase account on every domain and its private incumbents stay out of the
   run's trajectory, which holds only the parent's barrier records. *)

type leg = II | SA | Two_phase

let leg_of_name s =
  match String.uppercase_ascii s with
  | "II" -> Some II
  | "SA" -> Some SA
  | "2PO" -> Some Two_phase
  | _ -> None

type params = { width : int; rounds : int; legs : leg list }

let default_params = { width = 4; rounds = 4; legs = [ II; SA; Two_phase ] }

let validate_params p =
  if p.width <= 0 then invalid_arg "Portfolio.run: width must be positive";
  if p.rounds <= 0 then invalid_arg "Portfolio.run: rounds must be positive";
  if p.legs = [] then invalid_arg "Portfolio.run: legs must be non-empty"

(* One replicate's leg for one round, against its private evaluator.  The
   sub-evaluator has no deadline, so only tick exhaustion or convergence can
   end the leg — both are the leg's normal way to return. *)
let run_leg ~ii_params ~sa_params leg ?start sub_ev rng =
  try
    match leg with
    | II ->
      Iterative_improvement.run ~params:ii_params ?start sub_ev rng
        ~starts:(fun () -> Some (Random_plan.generate_charged sub_ev rng))
    | SA ->
      let start =
        match start with
        | Some s -> s
        | None -> Random_plan.generate_charged sub_ev rng
      in
      Simulated_annealing.run ~params:sa_params sub_ev rng ~start
        ~restarts:(fun () -> Some (Random_plan.generate_charged sub_ev rng))
    | Two_phase ->
      let params = { Two_phase.default_params with ii_params; sa_params } in
      Two_phase.run ~params ?start sub_ev rng
  with Budget.Exhausted | Evaluator.Converged -> ()

let run ?(params = default_params) ~ii_params ~sa_params ?start ev rng =
  validate_params params;
  let initial =
    match Evaluator.remaining ev with
    | Some r -> r
    | None ->
      invalid_arg
        "Portfolio.run: the portfolio needs a finite tick budget (legs with \
         unlimited budget never reach a barrier)"
  in
  let query = Evaluator.query ev and model = Evaluator.model ev in
  let epsilon = Evaluator.epsilon ev and calibration = Evaluator.calibration ev in
  let round_ticks = max 1 (initial / (params.width * params.rounds)) in
  let legs = Array.of_list params.legs in
  let rngs = Array.init params.width (fun i -> Rng.split_at rng i) in
  let replicates = Array.init params.width (fun i -> i) in
  let incumbent = ref start in
  let phase = Obs.current_phase () in
  for round = 0 to params.rounds - 1 do
    Obs.span "portfolio_round"
      ~fields:[ ("round", Obs.I round); ("ticks", Obs.I round_ticks) ]
    @@ fun () ->
    let results =
      Parallel.map_array
        (fun i ->
          Obs.sub_run phase @@ fun () ->
          let leg = legs.(i mod Array.length legs) in
          let sub_ev =
            Evaluator.create ~epsilon ?calibration ~query ~model ~ticks:round_ticks ()
          in
          run_leg ~ii_params ~sa_params leg ?start:!incumbent sub_ev rngs.(i);
          (Evaluator.best sub_ev, Evaluator.used sub_ev))
        replicates
    in
    (* Barrier: fold results in replicate order on this domain.  Incumbents
       are recorded before the parent is charged so the best plan of the
       round survives even when the summed charge exhausts the parent;
       [Converged] / [Budget.Exhausted] escape to the method driver's normal
       handlers. *)
    Obs.bump Obs.Portfolio_rounds;
    let spent = ref 0 in
    let record_all () =
      Array.iter
        (fun (best, used) ->
          spent := !spent + used;
          match best with
          | Some (cost, plan) ->
            Obs.bump Obs.Portfolio_exchanges;
            Evaluator.record ev plan cost
          | None -> ())
        results
    in
    let charge_parent () = Evaluator.charge ev !spent in
    (match record_all () with
    | () -> charge_parent ()
    | exception e ->
      (* Still account the round's work before the stop propagates. *)
      (try charge_parent () with Budget.Exhausted | Budget.Deadline_exceeded -> ());
      raise e);
    (* The exchange: every replicate restarts the next round from the global
       incumbent. *)
    match Evaluator.best ev with
    | Some (_, plan) -> incumbent := Some plan
    | None -> ()
  done

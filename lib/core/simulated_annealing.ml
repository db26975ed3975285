open Ljqo_stats
module Obs = Ljqo_obs.Obs

type params = {
  size_factor : int;
  initial_acceptance : float;
  cooling : float;
  frozen_acceptance : float;
  frozen_chains : int;
  mix : Move.mix;
}

let default_params =
  {
    size_factor = 16;
    initial_acceptance = 0.4;
    cooling = 0.95;
    frozen_acceptance = 0.02;
    frozen_chains = 5;
    mix = Move.default_mix;
  }

(* Probe random moves from the start state to estimate the mean uphill cost
   delta, from which the initial temperature follows:
   exp(-mean_delta / T0) = chi0.  Probes are calibration, not search, so
   they are not counted in the move-outcome matrix. *)
let initial_temperature params nb state rng =
  let n = Search_state.n state in
  let probes = max 8 (2 * n) in
  let uphill_sum = ref 0.0 in
  let uphill_count = ref 0 in
  for _ = 1 to probes do
    let before = Search_state.cost state in
    let move = Move.random ~mix:params.mix rng ~n in
    match Neighborhood.consider nb move with
    | None -> ()
    | Some after ->
      Neighborhood.reject nb;
      if after > before then begin
        uphill_sum := !uphill_sum +. (after -. before);
        incr uphill_count
      end
  done;
  if !uphill_count = 0 then Float.max 1e-9 (Search_state.cost state *. 0.05)
  else
    let mean_delta = !uphill_sum /. float_of_int !uphill_count in
    mean_delta /. -.log params.initial_acceptance

let anneal_once ?(params = default_params) ev rng ~start =
  Obs.bump Obs.Starts;
  let state = Search_state.init ev start in
  let n = Search_state.n state in
  if n >= 2 then begin
    (* One neighbor-kernel workspace serves the probing phase and every
       chain: metropolis-rejected moves (most of a cooled run) never touch
       the state (see Neighborhood). *)
    let nb = Neighborhood.create state in
    let temp = ref (initial_temperature params nb state rng) in
    let chain_length = max 4 (params.size_factor * n) in
    let cold_chains = ref 0 in
    let best_seen = ref (Search_state.cost state) in
    while !cold_chains < params.frozen_chains do
      let accepted = ref 0 in
      let improved = ref false in
      for _ = 1 to chain_length do
        let before = Search_state.cost state in
        let move = Move.random ~mix:params.mix rng ~n in
        let kind = Move.obs_kind move in
        Obs.move kind Obs.Proposed;
        match Neighborhood.consider nb move with
        | None -> Obs.move kind Obs.Invalid
        | Some after ->
          let delta = after -. before in
          Obs.hist_record_f Obs.Move_delta (Float.abs delta);
          let accept =
            delta <= 0.0 || Rng.float rng 1.0 < exp (-.delta /. !temp)
          in
          if accept then begin
            Obs.move kind Obs.Accepted;
            incr accepted;
            Neighborhood.accept nb;
            Search_state.commit state;
            if after < !best_seen then begin
              best_seen := after;
              improved := true
            end
          end
          else begin
            Obs.move kind Obs.Rejected;
            Neighborhood.reject nb
          end
      done;
      Obs.bump Obs.Sa_chains;
      if Obs.tracing () then begin
        let accepted = !accepted and temp_now = !temp and best = !best_seen in
        Obs.trace_sampled "sa_temp" (fun () ->
            [ ("temp", Obs.F temp_now);
              ("accept_ratio", Obs.F (float_of_int accepted /. float_of_int chain_length));
              ("best", Obs.F best) ])
      end;
      let ratio = float_of_int !accepted /. float_of_int chain_length in
      if ratio < params.frozen_acceptance && not !improved then incr cold_chains
      else cold_chains := 0;
      temp := params.cooling *. !temp
    done
  end

let run ?(params = default_params) ev rng ~start ~restarts =
  Obs.with_phase Obs.Sa (fun () ->
      anneal_once ~params ev rng ~start;
      let rec loop () =
        match restarts () with
        | None -> ()
        | Some s ->
          anneal_once ~params ev rng ~start:s;
          loop ()
      in
      loop ())

module Obs = Ljqo_obs.Obs

type params = { patience_factor : int; mix : Move.mix }

let default_params = { patience_factor = 4; mix = Move.default_mix }

(* The descent samples neighbors through the neighbor kernel: a rejected
   or invalid proposal (the common case near a local minimum) costs no
   snapshot, no rollback and no allocation; only accepted moves touch the
   state (see Neighborhood). *)
let descend ?(params = default_params) state rng =
  let n = Search_state.n state in
  if n >= 2 then begin
    let nb = Neighborhood.create state in
    let patience = max 1 (params.patience_factor * n) in
    let failures = ref 0 in
    while !failures < patience do
      let move = Move.random ~mix:params.mix rng ~n in
      let kind = Move.obs_kind move in
      Obs.move kind Obs.Proposed;
      let before = Search_state.cost state in
      match Neighborhood.consider nb move with
      | None ->
        Obs.move kind Obs.Invalid;
        incr failures
      | Some after ->
        Obs.hist_record_f Obs.Move_delta (Float.abs (after -. before));
        if after < before then begin
          Obs.move kind Obs.Accepted;
          Neighborhood.accept nb;
          Search_state.commit state;
          failures := 0
        end
        else begin
          Obs.move kind Obs.Rejected;
          Neighborhood.reject nb;
          incr failures
        end
    done
  end

let run ?(params = default_params) ?start ev rng ~starts =
  let starts =
    match start with
    | None -> starts
    | Some plan ->
      if not (Plan.is_valid (Evaluator.query ev) plan) then
        invalid_arg "Iterative_improvement.run: ?start is not a valid plan for this query";
      (* One-shot prefix: the warm start is descended first, then the
         caller's source takes over. *)
      let pending = ref (Some (Array.copy plan)) in
      fun () ->
        (match !pending with
        | Some _ as p ->
          pending := None;
          p
        | None -> starts ())
  in
  Obs.with_phase Obs.Ii (fun () ->
      let rec loop () =
        match starts () with
        | None -> ()
        | Some start ->
          Obs.bump Obs.Starts;
          let state = Search_state.init ev start in
          descend ~params state rng;
          loop ()
      in
      loop ())

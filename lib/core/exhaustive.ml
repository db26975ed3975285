open Ljqo_catalog
open Ljqo_cost

exception Too_large of { n : int; max_relations : int }

type result = {
  plan : Plan.t;
  cost : float;
  nodes_expanded : int;
  pruned : int;
}

let max_relations = 16

let optimize model query =
  let n = Query.n_relations query in
  if n = 0 then invalid_arg "Exhaustive.optimize: empty query";
  if not (Query.is_connected query) then
    invalid_arg "Exhaustive.optimize: join graph is disconnected";
  if n > max_relations then raise (Too_large { n; max_relations });
  let best_cost = ref infinity in
  let best_plan = ref None in
  let perm = Array.make n (-1) in
  (* [max_int] marks unplaced relations: the step kernel treats
     [pos.(r) < depth] as "placed before position depth", and refuses (at no
     cost-model call) a relation that joins nothing placed. *)
  let pos = Array.make n max_int in
  let stepper = Plan_cost.Stepper.make model query in
  let cards = Array.make n 0.0 in
  let costs = Array.make n 0.0 in
  let nodes = ref 0 in
  let pruned = ref 0 in
  (* Depth-first over valid extensions; [cards.(depth - 1)] and [partial]
     are the running intermediate size and cost of perm[0..depth-1]. *)
  let rec extend depth partial =
    if depth = n then begin
      if partial < !best_cost then begin
        best_cost := partial;
        best_plan := Some (Array.copy perm)
      end
    end
    else
      for r = 0 to n - 1 do
        if pos.(r) = max_int then begin
          pos.(r) <- depth;
          if
            Plan_cost.Stepper.step stepper ~price_cross:false ~pos ~cards ~costs
              ~k:depth ~r
          then begin
            incr nodes;
            perm.(depth) <- r;
            let partial' = partial +. costs.(depth) in
            if partial' < !best_cost then extend (depth + 1) partial'
            else incr pruned;
            perm.(depth) <- -1
          end;
          pos.(r) <- max_int
        end
      done
  in
  for first = 0 to n - 1 do
    incr nodes;
    perm.(0) <- first;
    pos.(first) <- 0;
    cards.(0) <- Query.cardinality query first;
    extend 1 0.0;
    pos.(first) <- max_int;
    perm.(0) <- -1
  done;
  match !best_plan with
  | Some plan -> { plan; cost = !best_cost; nodes_expanded = !nodes; pruned = !pruned }
  | None -> assert false

let count_valid_plans ?(limit = 10_000_000) query =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  let placed = Array.make n false in
  let count = ref 0 in
  let exception Done in
  let rec extend depth =
    if depth = n then begin
      incr count;
      if !count >= limit then raise Done
    end
    else
      for r = 0 to n - 1 do
        if (not placed.(r))
           && List.exists (fun (o, _) -> placed.(o)) (Join_graph.neighbors graph r)
        then begin
          placed.(r) <- true;
          extend (depth + 1);
          placed.(r) <- false
        end
      done
  in
  (try
     for first = 0 to n - 1 do
       placed.(first) <- true;
       extend 1;
       placed.(first) <- false
     done
   with Done -> ());
  !count

let strategy_ladder = [ (5, 4); (4, 3); (3, 2); (2, 1); (2, 0) ]

let factorial c =
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 c

let cluster_starts ~n ~c ~o =
  let step = c - o in
  let rec go p acc =
    if p >= n || (p > 0 && p + 1 >= n) then List.rev acc
    else if p + c >= n then List.rev ((p, n - p) :: acc)
    else go (p + step) ((p, c) :: acc)
  in
  if n < 2 then [] else go 0 []

let pass_ticks_estimate ~n ~c ~o =
  let clusters = List.length (cluster_starts ~n ~c ~o) in
  clusters * factorial c * c

(* All arrangements of [a] via Heap's algorithm, invoking [f] on each
   (including the identity); [f] must not retain the array. *)
let iter_permutations f a =
  let a = Array.copy a in
  let n = Array.length a in
  let swap i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  in
  let rec go k =
    if k <= 1 then f a
    else
      for i = 0 to k - 1 do
        go (k - 1);
        if i < k - 1 then if k mod 2 = 0 then swap i (k - 1) else swap 0 (k - 1)
      done
  in
  go n

(* Every arrangement of a cluster is a window rewrite through the neighbor
   kernel; the best strictly improving one is considered again (and charged
   again) before it is accepted. *)
let one_pass state ~c ~o =
  if c < 2 || o < 0 || o >= c then invalid_arg "Local_improvement.one_pass";
  let n = Search_state.n state in
  let nb = Neighborhood.create state in
  let improved = ref false in
  List.iter
    (fun (p, len) ->
      if len >= 2 then begin
        (* perm_view: only the cluster window is copied, not the whole
           permutation (this runs once per cluster per pass). *)
        let current = Array.sub (Search_state.perm_view state) p len in
        let best = ref (Search_state.cost state) in
        let best_arrangement = ref None in
        iter_permutations
          (fun candidate ->
            if candidate <> current then
              match Neighborhood.consider_rewrite nb ~lo:p ~rels:candidate with
              | None -> ()
              | Some total ->
                if total < !best then begin
                  best := total;
                  best_arrangement := Some (Array.copy candidate)
                end;
                Neighborhood.reject nb)
          current;
        match !best_arrangement with
        | None -> ()
        | Some arrangement ->
          (match Neighborhood.consider_rewrite nb ~lo:p ~rels:arrangement with
          | Some _ ->
            Neighborhood.accept nb;
            Search_state.commit state;
            improved := true
          | None -> assert false)
      end)
    (cluster_starts ~n ~c ~o);
  !improved

let improve state ~c ~o =
  if o = 0 then ignore (one_pass state ~c ~o)
  else
    let rec go () = if one_pass state ~c ~o then go () in
    go ()

let auto state =
  let n = Search_state.n state in
  let ev = Search_state.evaluator state in
  let affordable () =
    let fits (c, o) =
      match Evaluator.remaining ev with
      | None -> true
      | Some r -> pass_ticks_estimate ~n ~c ~o <= r
    in
    List.find_opt fits strategy_ladder
  in
  let rec go () =
    match affordable () with
    | None -> ()
    | Some (c, o) -> if one_pass state ~c ~o then go ()
  in
  go ()

open Ljqo_catalog

type weighting = W_selectivity | W_intermediate_size | W_rank

let all_weightings = [ W_selectivity; W_intermediate_size; W_rank ]

let weighting_index = function
  | W_selectivity -> 3
  | W_intermediate_size -> 4
  | W_rank -> 5

let weighting_of_index = function
  | 3 -> W_selectivity
  | 4 -> W_intermediate_size
  | 5 -> W_rank
  | i -> invalid_arg ("Kbz.weighting_of_index: " ^ string_of_int i)

let default_weighting = W_selectivity

(* Directed edge weight from inside-vertex [i] to frontier vertex [j]. *)
let edge_weight query weighting i j sel =
  let ni = Query.cardinality query i in
  let nj = Query.cardinality query j in
  match weighting with
  | W_selectivity -> sel
  | W_intermediate_size -> ni *. nj *. sel
  | W_rank ->
    let dj = Query.distinct_values query j in
    ((ni *. nj *. sel) -. 1.0) /. (0.5 *. ni *. (nj /. dj))

let smallest_relation query =
  let n = Query.n_relations query in
  let best = ref 0 in
  for i = 1 to n - 1 do
    if Query.cardinality query i < Query.cardinality query !best then best := i
  done;
  !best

let spanning_tree ?(charge = ignore) query weighting =
  let n = Query.n_relations query in
  let graph = Query.graph query in
  let in_tree = Array.make n false in
  let chosen = ref [] in
  in_tree.(smallest_relation query) <- true;
  for _ = 2 to n do
    (* Scan the frontier for the minimum-weight edge out of the tree. *)
    let best = ref None in
    let scanned = ref 0 in
    for i = 0 to n - 1 do
      if in_tree.(i) then
        List.iter
          (fun (j, sel) ->
            if not in_tree.(j) then begin
              incr scanned;
              let w = edge_weight query weighting i j sel in
              match !best with
              | Some (_, _, _, bw) when bw <= w -> ()
              | _ -> best := Some (i, j, sel, w)
            end)
          (Join_graph.neighbors graph i)
    done;
    charge !scanned;
    match !best with
    | None -> invalid_arg "Kbz.spanning_tree: join graph is disconnected"
    | Some (i, j, sel, _) ->
      in_tree.(j) <- true;
      chosen := { Join_graph.u = i; v = j; selectivity = sel } :: !chosen
  done;
  Join_graph.make ~n !chosen

(* --- Algorithm R ------------------------------------------------------- *)

(* A segment: a maximal run of relations already fixed in relative order,
   with aggregate multiplier [t] and ASI cost [c].  [rels] is in join
   order. *)
type segment = { rels : int list; t : float; c : float }

let rank s = (s.t -. 1.0) /. s.c

let combine s1 s2 =
  { rels = s1.rels @ s2.rels; t = s1.t *. s2.t; c = s1.c +. (s1.t *. s2.c) }

(* Per-relation ASI quantities given the parent in the rooted tree. *)
let segment_of query ~tree ~parent v =
  let sel = Join_graph.selectivity_exn tree parent v in
  let nv = Query.cardinality query v in
  let dv = Query.distinct_values query v in
  { rels = [ v ]; t = sel *. nv; c = 0.5 *. nv /. dv }

(* Merge rank-sorted chains into one rank-sorted chain (stable). *)
let merge_chains ?(charge = ignore) chains =
  let rec merge2 a b =
    match (a, b) with
    | [], c | c, [] -> c
    | x :: xs, y :: ys ->
      charge 1;
      if rank x <= rank y then x :: merge2 xs b else y :: merge2 a ys
  in
  List.fold_left merge2 [] chains

(* Collapse front inversions: the head segment must not out-rank its
   successor (the tail is already sorted). *)
let rec normalize ?(charge = ignore) = function
  | s1 :: s2 :: rest when rank s1 > rank s2 ->
    charge 1;
    normalize ~charge (combine s1 s2 :: rest)
  | chain -> chain

let optimal_for_root ?(charge = ignore) query ~tree ~root =
  let n = Query.n_relations query in
  if not (Join_graph.is_tree tree) then
    invalid_arg "Kbz.optimal_for_root: graph is not a tree";
  if Join_graph.n tree <> n then
    invalid_arg "Kbz.optimal_for_root: tree size mismatch";
  let rec chain_of ~parent v : segment list =
    charge 1;
    let children =
      List.filter_map
        (fun (w, _) -> if w <> parent then Some w else None)
        (Join_graph.neighbors tree v)
    in
    let child_chains = List.map (fun w -> chain_of ~parent:v w) children in
    let merged = merge_chains ~charge child_chains in
    normalize ~charge (segment_of query ~tree ~parent v :: merged)
  in
  let child_chains =
    List.map
      (fun (w, _) -> chain_of ~parent:root w)
      (Join_graph.neighbors tree root)
  in
  let chain = merge_chains ~charge child_chains in
  let order = root :: List.concat_map (fun s -> s.rels) chain in
  let perm = Array.of_list order in
  assert (Array.length perm = n);
  perm

let asi_cost query ~tree perm =
  let n = Array.length perm in
  if n = 0 then invalid_arg "Kbz.asi_cost: empty plan";
  let root = perm.(0) in
  (* Parent of each node in [tree] rooted at [root]. *)
  let parent = Array.make n (-1) in
  let rec assign p v =
    List.iter
      (fun (w, _) ->
        if w <> p then begin
          parent.(w) <- v;
          assign v w
        end)
      (Join_graph.neighbors tree v)
  in
  assign (-1) root;
  let total = ref 0.0 in
  let t_product = ref 1.0 in
  for i = 1 to n - 1 do
    let v = perm.(i) in
    let s = segment_of query ~tree ~parent:parent.(v) v in
    total := !total +. (!t_product *. s.c);
    t_product := !t_product *. s.t
  done;
  !total

let make_source ?(weighting = default_weighting) ev =
  let query = Evaluator.query ev in
  let tree = lazy (spanning_tree ~charge:(Evaluator.charge ev) query weighting) in
  let roots = ref (Augmentation.starts query) in
  fun () ->
    match !roots with
    | [] -> None
    | root :: rest ->
      roots := rest;
      let tree = Lazy.force tree in
      Some (optimal_for_root ~charge:(Evaluator.charge ev) query ~tree ~root)

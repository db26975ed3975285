open Ljqo_catalog

type criterion =
  | Min_cardinality
  | Max_degree
  | Min_selectivity
  | Min_intermediate_size
  | Min_rank

let all_criteria =
  [ Min_cardinality; Max_degree; Min_selectivity; Min_intermediate_size; Min_rank ]

let criterion_index = function
  | Min_cardinality -> 1
  | Max_degree -> 2
  | Min_selectivity -> 3
  | Min_intermediate_size -> 4
  | Min_rank -> 5

let criterion_of_index = function
  | 1 -> Min_cardinality
  | 2 -> Max_degree
  | 3 -> Min_selectivity
  | 4 -> Min_intermediate_size
  | 5 -> Min_rank
  | i -> invalid_arg ("Augmentation.criterion_of_index: " ^ string_of_int i)

let criterion_name = function
  | Min_cardinality -> "min-cardinality"
  | Max_degree -> "max-degree"
  | Min_selectivity -> "min-selectivity"
  | Min_intermediate_size -> "min-intermediate-size"
  | Min_rank -> "min-rank"

let default_criterion = Min_selectivity

let starts query =
  let n = Query.n_relations query in
  let ids = List.init n (fun i -> i) in
  List.sort
    (fun a b ->
      match compare (Query.cardinality query a) (Query.cardinality query b) with
      | 0 -> compare a b
      | c -> c)
    ids

(* The heuristic consults the same selectivity estimator the cost model
   uses (including the distinct-value clamp at the current intermediate
   size), as a real optimizer's heuristics would: this is
   [Plan_cost.Stepper]'s effective selectivity, with the float operations
   of its [Float.min]/[Float.max] form (the test oracle's
   [edge_selectivity]) in the same order.  Written as plain compares, they
   agree bit for bit even though the heuristic's running size [outer] is
   not clamped and may reach [inf], then NaN: every compare has a distinct
   count (at least 1, never NaN; see [Relation.distinct_values]) or the
   constant 1 on one side, and it is written so that a NaN on the other
   side falls through to that side, as [Float.min]/[Float.max] return it.
   A [-0.] selectivity passes through unchanged, as there.  It is inlined
   here rather than shared with [Plan_cost.Stepper]: a call across the
   module boundary would box its result wherever cross-module inlining is
   off. *)
let[@inline] effective_selectivity ~outer ~dk ~dr s_base =
  let m = if outer > dk then dk else outer in
  let clamped = if m < 1.0 then 1.0 else m in
  let s = s_base *. (if dr > dk then dr else dk) /. (if dr > clamped then dr else clamped) in
  if s > 1.0 then 1.0 else s

(* [Float.min x y] bit for bit, NaN and signed zeros included, for operands
   that may both be NaN or zeros of either sign.  Ordered operands take the
   first two tests; the rest is the stdlib's own definition with its
   [y > x] test known to be false. *)
let[@inline] float_min x y =
  if x < y then x
  else if y < x then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if y <> y then y else x
  else if x <> x then x
  else y

(* Folds [j]'s effective selectivities over its edges to placed relations,
   starting from 1: their minimum when [min] is set (criterion 3's key),
   their product otherwise (criteria 4 and 5 and the running size).  The
   product is taken in ascending neighbor order, the order [Plan_cost]
   multiplies in, on which its rounding depends.  Neighbor ids come from the
   graph, so they index [distincts] and [placed]. *)
let[@inline] fold_placed ~min ~outer ~adjacency ~selectivities ~distincts ~placed j =
  let ids = Array.unsafe_get adjacency j in
  let sels = Array.unsafe_get selectivities j in
  let dr = Array.unsafe_get distincts j in
  let acc = ref 1.0 in
  for e = 0 to Array.length ids - 1 do
    let k = Array.unsafe_get ids e in
    if Array.unsafe_get placed k then begin
      let s =
        effective_selectivity ~outer ~dk:(Array.unsafe_get distincts k) ~dr
          (Array.unsafe_get sels e)
      in
      acc := if min then float_min !acc s else !acc *. s
    end
  done;
  !acc

(* Whether candidate [j] ranks before the best so far: the order polymorphic
   [<] gives the tuples [(key, -.d_j, j)] and [(best_key, -.d_best, best)].
   It is lexicographic: the smaller key, then more distinct values (the
   paper's stated goal of keeping intermediate distinct counts high), then
   the smaller id for determinism.  A NaN key compares unordered, which ends
   the comparison as false, so a NaN key neither wins nor is displaced. *)
let[@inline] ranks_before ~(key : float) ~(dj : float) ~(j : int) ~best_key ~d_best ~best =
  key < best_key || (key = best_key && (dj > d_best || (dj = d_best && j < best)))

let generate ?(charge = ignore) query criterion ~start =
  let n = Query.n_relations query in
  if start < 0 || start >= n then invalid_arg "Augmentation.generate: bad start";
  let graph = Query.graph query in
  let adjacency = Join_graph.adjacency graph in
  let selectivities = Join_graph.selectivity_table graph in
  let cards = Query.cardinalities query in
  let distincts = Query.distinct_counts query in
  let perm = Array.make n (-1) in
  let placed = Array.make n false in
  (* The candidates, the unplaced relations joined to the prefix, fill slots
     [0, count): appended in the order they join, swap-removed when placed.
     The scan keeps this order, which decides the argmin's NaN cases. *)
  let candidates = Array.make n 0 in
  let slot = Array.make n (-1) in
  let count = ref 0 in
  let size = ref 0.0 in
  for i = 0 to n - 1 do
    let r =
      if i = 0 then start
      else begin
        if !count = 0 then
          invalid_arg "Augmentation.generate: join graph is disconnected";
        charge !count;
        let outer = !size in
        let best = ref (-1) in
        let best_key = ref 0.0 in
        for c = 0 to !count - 1 do
          let j = Array.unsafe_get candidates c in
          let key =
            match criterion with
            | Min_cardinality -> Array.unsafe_get cards j
            | Max_degree -> -.float_of_int (Array.length (Array.unsafe_get adjacency j))
            | Min_selectivity ->
              fold_placed ~min:true ~outer ~adjacency ~selectivities ~distincts ~placed j
            | Min_intermediate_size ->
              outer *. Array.unsafe_get cards j
              *. fold_placed ~min:false ~outer ~adjacency ~selectivities ~distincts ~placed j
            | Min_rank ->
              let nj = Array.unsafe_get cards j in
              let dj = Array.unsafe_get distincts j in
              let numer =
                (outer *. nj
                *. fold_placed ~min:false ~outer ~adjacency ~selectivities ~distincts ~placed j)
                -. 1.0
              in
              let denom = 0.5 *. outer *. (nj /. dj) in
              numer /. denom
          in
          if
            c = 0
            || ranks_before ~key ~dj:(Array.unsafe_get distincts j) ~j ~best_key:!best_key
                 ~d_best:(Array.unsafe_get distincts !best) ~best:!best
          then begin
            best := j;
            best_key := key
          end
        done;
        !best
      end
    in
    (* The running size, unclamped but for the floor of one tuple. *)
    size :=
      (if i = 0 then cards.(r)
       else
         let x =
           !size *. cards.(r)
           *. fold_placed ~min:false ~outer:!size ~adjacency ~selectivities ~distincts
                ~placed r
         in
         if x < 1.0 then 1.0 else x);
    perm.(i) <- r;
    placed.(r) <- true;
    let s = slot.(r) in
    if s >= 0 then begin
      let last = candidates.(!count - 1) in
      candidates.(s) <- last;
      slot.(last) <- s;
      slot.(r) <- -1;
      decr count
    end;
    let ids = adjacency.(r) in
    for e = 0 to Array.length ids - 1 do
      let other = ids.(e) in
      if (not placed.(other)) && slot.(other) < 0 then begin
        candidates.(!count) <- other;
        slot.(other) <- !count;
        incr count
      end
    done
  done;
  perm

let make_source ?(criterion = default_criterion) ev =
  let query = Evaluator.query ev in
  let remaining = ref (starts query) in
  fun () ->
    match !remaining with
    | [] -> None
    | start :: rest ->
      remaining := rest;
      Some (generate ~charge:(Evaluator.charge ev) query criterion ~start)

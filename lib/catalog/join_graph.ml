type edge = { u : int; v : int; selectivity : float }

type t = {
  n : int;
  adj : (int * float) list array;  (* sorted by neighbor id *)
  nbr_ids : int array array;  (* same adjacency as parallel arrays ... *)
  nbr_sels : float array array;  (* ... sorted ascending by neighbor id *)
  masks : Bitset.t array;  (* per-vertex neighbor bitsets, any width *)
  edge_count : int;
}

let normalize_edge e =
  if e.u < e.v then e else { u = e.v; v = e.u; selectivity = e.selectivity }

let make ~n edge_list =
  if n < 0 then invalid_arg "Join_graph.make: negative n";
  let table = Hashtbl.create (List.length edge_list) in
  List.iter
    (fun e ->
      if e.u = e.v then invalid_arg "Join_graph.make: self loop";
      if e.u < 0 || e.u >= n || e.v < 0 || e.v >= n then
        invalid_arg "Join_graph.make: endpoint out of range";
      if Float.is_nan e.selectivity || e.selectivity < 0.0 || e.selectivity > 1.0
      then
        (* 0 is allowed: an always-false predicate is a legal, if degenerate,
           join; the estimator floors intermediate sizes at one tuple. *)
        invalid_arg "Join_graph.make: selectivity outside [0,1]";
      let e = normalize_edge e in
      let key = (e.u, e.v) in
      match Hashtbl.find_opt table key with
      | None -> Hashtbl.add table key e.selectivity
      | Some s -> Hashtbl.replace table key (s *. e.selectivity))
    edge_list;
  let adj = Array.make n [] in
  Hashtbl.iter
    (fun (u, v) s ->
      adj.(u) <- (v, s) :: adj.(u);
      adj.(v) <- (u, s) :: adj.(v))
    table;
  Array.iteri
    (fun i l -> adj.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
    adj;
  let nbr_ids = Array.map (fun l -> Array.of_list (List.map fst l)) adj in
  let nbr_sels = Array.map (fun l -> Array.of_list (List.map snd l)) adj in
  let masks =
    Array.map
      (Array.fold_left (fun acc other -> Bitset.add other acc) Bitset.empty)
      nbr_ids
  in
  { n; adj; nbr_ids; nbr_sels; masks; edge_count = Hashtbl.length table }

let n g = g.n

let n_edges g = g.edge_count

let neighbors g v =
  if v < 0 || v >= g.n then invalid_arg "Join_graph.neighbors: out of range";
  g.adj.(v)

let neighbor_ids g v =
  if v < 0 || v >= g.n then invalid_arg "Join_graph.neighbor_ids: out of range";
  Array.unsafe_get g.nbr_ids v

let adjacency g = g.nbr_ids

let selectivity_table g = g.nbr_sels

let neighbor_sels g v =
  if v < 0 || v >= g.n then invalid_arg "Join_graph.neighbor_sels: out of range";
  Array.unsafe_get g.nbr_sels v

let neighbor_mask g v =
  if v < 0 || v >= g.n then invalid_arg "Join_graph.neighbor_mask: out of range";
  Array.unsafe_get g.masks v

let degree g v = Array.length (neighbor_ids g v)

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    List.iter
      (fun (v, s) -> if u < v then acc := { u; v; selectivity = s } :: !acc)
      g.adj.(u)
  done;
  !acc

let fold_edges f g init = List.fold_left (fun acc e -> f e acc) init (edges g)

let selectivity g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n then
    invalid_arg "Join_graph.selectivity: out of range";
  List.assoc_opt v g.adj.(u)

let selectivity_exn g u v =
  match selectivity g u v with
  | Some s -> s
  | None -> invalid_arg "Join_graph.selectivity_exn: no such edge"

let are_joined g u v = selectivity g u v <> None

let components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for start = 0 to g.n - 1 do
    if not seen.(start) then begin
      (* Depth-first collection of the component containing [start]. *)
      let comp = ref [] in
      let stack = ref [ start ] in
      seen.(start) <- true;
      let rec drain () =
        match !stack with
        | [] -> ()
        | v :: rest ->
          stack := rest;
          comp := v :: !comp;
          List.iter
            (fun (w, _) ->
              if not seen.(w) then begin
                seen.(w) <- true;
                stack := w :: !stack
              end)
            g.adj.(v);
          drain ()
      in
      drain ();
      comps := List.sort compare !comp :: !comps
    end
  done;
  List.sort compare (List.rev !comps)

let is_connected g =
  match components g with [ _ ] -> true | _ -> false

let is_tree g = is_connected g && g.edge_count = g.n - 1

let induced_connected g vs =
  match vs with
  | [] -> false
  | [ v ] -> v >= 0 && v < g.n
  | start :: _ ->
    let in_set = Array.make g.n false in
    let size = ref 0 in
    List.iter
      (fun v ->
        if v < 0 || v >= g.n then
          invalid_arg "Join_graph.induced_connected: out of range";
        if not in_set.(v) then begin
          in_set.(v) <- true;
          incr size
        end)
      vs;
    let seen = Array.make g.n false in
    let reached = ref 0 in
    let stack = ref [ start ] in
    seen.(start) <- true;
    let rec drain () =
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        incr reached;
        List.iter
          (fun (w, _) ->
            if in_set.(w) && not seen.(w) then begin
              seen.(w) <- true;
              stack := w :: !stack
            end)
          g.adj.(v);
        drain ()
    in
    drain ();
    !reached = !size

let induced_connected_mask g vs =
  if Bitset.is_empty vs then false
  else begin
    let start = Bitset.min_elt vs in
    if start >= g.n then
      invalid_arg "Join_graph.induced_connected_mask: id out of range";
    (* Breadth-first mask growth: absorb, at each round, every vertex of [vs]
       adjacent to the reached set.  Each round is a handful of word ops per
       frontier vertex; no per-vertex allocation. *)
    let reached = ref (Bitset.singleton start) in
    let frontier = ref !reached in
    while not (Bitset.is_empty !frontier) do
      let grow = ref Bitset.empty in
      Bitset.iter
        (fun v ->
          if v >= g.n then
            invalid_arg "Join_graph.induced_connected_mask: id out of range";
          grow := Bitset.union !grow g.masks.(v))
        !frontier;
      let fresh = Bitset.diff (Bitset.inter !grow vs) !reached in
      reached := Bitset.union !reached fresh;
      frontier := fresh
    done;
    Bitset.subset vs !reached
  end

let spanning_tree g ~weight =
  (* Prim's algorithm run from every unvisited vertex, so that a disconnected
     graph yields a spanning forest. *)
  let in_tree = Array.make g.n false in
  let chosen = ref [] in
  let weight_of u v s = weight { u; v; selectivity = s } in
  for start = 0 to g.n - 1 do
    if not in_tree.(start) then begin
      in_tree.(start) <- true;
      (* frontier: best known edge into each outside vertex *)
      let rec grow () =
        let best = ref None in
        for u = 0 to g.n - 1 do
          if in_tree.(u) then
            List.iter
              (fun (v, s) ->
                if not in_tree.(v) then
                  let w = weight_of u v s in
                  match !best with
                  | Some (_, _, _, bw) when bw <= w -> ()
                  | _ -> best := Some (u, v, s, w))
              g.adj.(u)
        done;
        match !best with
        | None -> ()
        | Some (u, v, s, _) ->
          in_tree.(v) <- true;
          chosen := { u; v; selectivity = s } :: !chosen;
          grow ()
      in
      grow ()
    end
  done;
  make ~n:g.n !chosen

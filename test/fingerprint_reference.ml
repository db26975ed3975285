(* Test oracle for [Ljqo_service.Fingerprint]: the original list-based
   Weisfeiler-Leman fingerprint, one boxed [Int64] list per vertex and
   round, each key computed in its own pass.  [Fingerprint.compute] must
   reproduce its exact key, coarse key and canonical order bit for bit —
   the service seeds every cold optimization from the exact key, so any
   drift would change fixed-seed plans. *)

open Ljqo_catalog

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let combine64 h v = mix64 (Int64.add (Int64.mul h 0x9E3779B97F4A7C15L) v)

let combine h (v : int) = combine64 h (Int64.of_int v)

let bucket ~per_decade x =
  if x <= 0.0 then min_int / 2
  else int_of_float (Float.round (per_decade *. log10 x))

let rounds_for n =
  let rec ilog2 acc k = if k <= 1 then acc else ilog2 (acc + 1) (k / 2) in
  3 + ilog2 0 (max 1 n)

let key_of ~per_decade ~salt ~stats q =
  let n = Query.n_relations q in
  let g = Query.graph q in
  let sigs =
    Array.init n (fun v ->
        if not stats then mix64 salt
        else
          let c = bucket ~per_decade (Query.cardinality q v) in
          let d = bucket ~per_decade (Query.distinct_values q v) in
          combine (combine (mix64 salt) c) d)
  in
  for _ = 1 to rounds_for n do
    let next =
      Array.init n (fun v ->
          let hs =
            List.map
              (fun (u, sel) ->
                combine64 (Int64.of_int (bucket ~per_decade sel)) sigs.(u))
              (Join_graph.neighbors g v)
          in
          let hs = List.sort Int64.compare hs in
          List.fold_left combine64 (mix64 sigs.(v)) hs)
    in
    Array.blit next 0 sigs 0 n
  done;
  let vs = Array.copy sigs in
  Array.sort Int64.compare vs;
  let h = Array.fold_left combine64 (combine salt n) vs in
  let es =
    Join_graph.fold_edges
      (fun e acc ->
        let su = sigs.(e.Join_graph.u) and sv = sigs.(e.Join_graph.v) in
        let lo, hi = if Int64.compare su sv <= 0 then (su, sv) else (sv, su) in
        combine64
          (combine64 (combine64 0x2545F4914F6CDD1DL lo) hi)
          (Int64.of_int (bucket ~per_decade e.Join_graph.selectivity))
        :: acc)
      g []
  in
  let es = List.sort Int64.compare es in
  (mix64 (List.fold_left combine64 h es), sigs)

(* [(exact_key, coarse_key, canonical_order)] as [Fingerprint] reports
   them. *)
let compute q =
  let n = Query.n_relations q in
  let exact, exact_sigs =
    key_of ~per_decade:1000.0 ~salt:0x51ED270B270B2701L ~stats:true q
  in
  let coarse, coarse_sigs =
    key_of ~per_decade:2.0 ~salt:0x6C62272E07BB0142L ~stats:false q
  in
  let canon = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = Int64.compare coarse_sigs.(a) coarse_sigs.(b) in
      if c <> 0 then c
      else
        let c = Int64.compare exact_sigs.(a) exact_sigs.(b) in
        if c <> 0 then c else compare a b)
    canon;
  (Printf.sprintf "%016Lx" exact, Printf.sprintf "%016Lx" coarse, canon)

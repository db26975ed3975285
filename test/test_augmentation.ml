open Ljqo_core
open Ljqo_catalog

let test_criterion_indexing () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "roundtrip" true
        (Augmentation.criterion_of_index (Augmentation.criterion_index c) = c))
    Augmentation.all_criteria;
  Alcotest.(check int) "five criteria" 5 (List.length Augmentation.all_criteria);
  (match Augmentation.criterion_of_index 6 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "index 6 accepted");
  Alcotest.(check bool) "default is min-selectivity" true
    (Augmentation.default_criterion = Augmentation.Min_selectivity)

let test_starts_sorted_by_cardinality () =
  let q = Helpers.chain3 () in
  (* cards: A=100, B=1000, C=10 -> order C, A, B *)
  Alcotest.(check (list int)) "sorted" [ 2; 0; 1 ] (Augmentation.starts q)

let test_generates_valid_plans () =
  let q = Helpers.random_query ~n_joins:10 71 in
  List.iter
    (fun crit ->
      List.iter
        (fun start ->
          let p = Augmentation.generate q crit ~start in
          if not (Plan.is_valid q p) then
            Alcotest.failf "invalid plan for criterion %s start %d"
              (Augmentation.criterion_name crit)
              start;
          Alcotest.(check int) "starts at start" start p.(0))
        (Augmentation.starts q))
    Augmentation.all_criteria

let test_deterministic () =
  let q = Helpers.random_query ~n_joins:8 72 in
  List.iter
    (fun crit ->
      Alcotest.(check bool) "same plan twice" true
        (Augmentation.generate q crit ~start:0 = Augmentation.generate q crit ~start:0))
    Augmentation.all_criteria

let test_min_cardinality_greedy () =
  (* On chain3 starting at C, min-cardinality must pick B (the only valid
     choice), then A. *)
  let q = Helpers.chain3 () in
  let p = Augmentation.generate q Augmentation.Min_cardinality ~start:2 in
  Alcotest.(check (array int)) "forced chain order" [| 2; 1; 0 |] p

let test_max_degree_greedy () =
  (* On a star, max-degree picks the hub right after any leaf start. *)
  let relations =
    Array.init 5 (fun id -> Helpers.rel ~id ~card:100 ~distinct:0.5 ())
  in
  let edges =
    List.init 4 (fun i -> { Join_graph.u = 0; v = i + 1; selectivity = 0.02 })
  in
  let q = Query.make ~relations ~graph:(Join_graph.make ~n:5 edges) in
  let p = Augmentation.generate q Augmentation.Max_degree ~start:3 in
  Alcotest.(check int) "hub second" 0 p.(1)

let test_charge_called () =
  let q = Helpers.random_query ~n_joins:8 73 in
  let charged = ref 0 in
  ignore
    (Augmentation.generate
       ~charge:(fun k -> charged := !charged + k)
       q Augmentation.default_criterion ~start:0);
  Alcotest.(check bool) "work was charged" true (!charged >= Query.n_relations q - 1)

let test_source_drains () =
  let q = Helpers.random_query ~n_joins:6 74 in
  let ev =
    Evaluator.create ~query:q ~model:Helpers.memory_model ~ticks:1_000_000 ()
  in
  let source = Augmentation.make_source ev in
  let count = ref 0 in
  let rec drain () =
    match source () with
    | Some p ->
      Alcotest.(check bool) "valid" true (Plan.is_valid q p);
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "one state per relation" (Query.n_relations q) !count;
  Alcotest.(check bool) "stays drained" true (source () = None)

let test_rejects_disconnected () =
  let q = Helpers.disconnected () in
  match Augmentation.generate q Augmentation.default_criterion ~start:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "disconnected query accepted"

let test_criterion3_beats_criterion1_aggregate () =
  (* Table 1's headline: min-selectivity dominates min-cardinality.  Compare
     best-of-states quality aggregated over a batch of benchmark queries. *)
  let total crit =
    List.fold_left
      (fun acc seed ->
        let q = Helpers.random_query ~n_joins:15 (900 + seed) in
        let best =
          List.fold_left
            (fun b start ->
              Float.min b
                (Ljqo_cost.Plan_cost.total Helpers.memory_model q
                   (Augmentation.generate q crit ~start)))
            infinity (Augmentation.starts q)
        in
        let lb = Ljqo_cost.Plan_cost.lower_bound Helpers.memory_model q in
        acc +. Float.min 10.0 (best /. lb))
      0.0
      (List.init 10 (fun i -> i))
  in
  let c3 = total Augmentation.Min_selectivity in
  let c1 = total Augmentation.Min_cardinality in
  Alcotest.(check bool)
    (Printf.sprintf "criterion 3 (%.2f) <= criterion 1 (%.2f)" c3 c1)
    true (c3 <= c1)

let prop_all_criteria_valid =
  Helpers.qcheck_case ~count:40 ~name:"every criterion yields valid plans"
    (fun (qseed, cidx) ->
      let q = Helpers.random_query ~n_joins:8 qseed in
      let crit = Augmentation.criterion_of_index (1 + abs cidx mod 5) in
      let start = List.hd (Augmentation.starts q) in
      Plan.is_valid q (Augmentation.generate q crit ~start))
    QCheck.(pair small_int small_int)

(* The array kernel against the list-based original
   ([Augmentation_reference]): the same plan and the same sequence of
   [charge] amounts, or [Invalid_argument] from both after the same
   charges. *)

module Qgen = Ljqo_querygen.Benchmark

let calibrations =
  [
    None;
    Some { Ljqo_cost.Plan_cost.sel_factor = 0.37 };
    Some { Ljqo_cost.Plan_cost.sel_factor = 3.1 };
  ]

let trace generate q crit ~start =
  let charges = ref [] in
  let plan =
    match generate (fun k -> charges := k :: !charges) q crit ~start with
    | p -> Some p
    | exception Invalid_argument _ -> None
  in
  (plan, List.rev !charges)

let agrees ?calibration q crit ~start =
  trace (fun charge -> Augmentation.generate ~charge ?calibration) q crit ~start
  = trace
      (fun charge -> Augmentation_reference.generate ~charge ?calibration)
      q crit ~start

(* The hand-built queries also run under an infinite factor, which a
   calibration accepts: it makes a zero edge's selectivity NaN beside
   capped ones, within one candidate's minimum. *)
let check_agrees_everywhere label q =
  List.iter
    (fun calibration ->
      List.iter
        (fun crit ->
          List.iter
            (fun start ->
              if not (agrees ?calibration q crit ~start) then
                Alcotest.failf "%s: criterion %d, start %d, %s: differs from the oracle"
                  label
                  (Augmentation.criterion_index crit)
                  start
                  (match calibration with
                  | None -> "uncalibrated"
                  | Some c -> Printf.sprintf "sel_factor %g" c.sel_factor))
            (Augmentation.starts q))
        Augmentation.all_criteria)
    (calibrations @ [ Some { Ljqo_cost.Plan_cost.sel_factor = Float.infinity } ])

let prop_matches_oracle =
  Helpers.qcheck_case ~count:100
    ~name:"plan and charges match the list-based oracle (all specs and criteria, N = 1..200)"
    (fun (spec_idx, size, seed) ->
      let rng = Ljqo_stats.Rng.create seed in
      let q = Qgen.generate_query (Qgen.by_index spec_idx) ~n_joins:(1 + size) ~rng in
      let starts = Array.of_list (Augmentation.starts q) in
      let n = Array.length starts in
      let picks = [ starts.(0); starts.(n - 1); starts.(Ljqo_stats.Rng.int rng n) ] in
      List.for_all
        (fun calibration ->
          List.for_all
            (fun crit ->
              List.for_all (fun start -> agrees ?calibration q crit ~start) picks)
            Augmentation.all_criteria)
        calibrations)
    QCheck.(triple (int_bound 9) (int_bound 199) int)

(* Hand-built queries for the cases no benchmark query reaches.  Each
   relation is (cardinality, distinct fraction); each edge (u, v,
   selectivity). *)
let hand_query rels edges =
  let relations =
    Array.of_list
      (List.mapi (fun id (card, distinct) -> Helpers.rel ~id ~card ~distinct ()) rels)
  in
  Query.make ~relations
    ~graph:
      (Join_graph.make ~n:(Array.length relations)
         (List.map (fun (u, v, selectivity) -> { Join_graph.u; v; selectivity }) edges))

let test_zero_selectivities () =
  let q =
    hand_query
      [ (100, 0.5); (40, 1.0); (1000, 0.1); (10, 0.9); (500, 0.02); (70, 0.3); (3000, 0.7) ]
      [
        (0, 1, 0.0); (1, 2, 0.01); (2, 3, -0.0); (3, 4, 0.05); (4, 5, 0.0); (5, 6, 0.2);
        (6, 0, 0.5); (0, 3, -0.0); (1, 5, 0.0); (2, 6, 1.0);
      ]
  in
  check_agrees_everywhere "zero and -0 selectivities" q;
  (* Under the infinite factor, relation 3's minimum meets NaN (the zero
     edge to 0) before 1 (the edge to 1): it stays NaN, so 3 keeps the first
     slot against 2's key of 1. *)
  check_agrees_everywhere "a NaN minimum"
    (hand_query
       [ (100, 0.5); (100, 0.9); (100, 0.5); (100, 0.1) ]
       [ (0, 1, 0.5); (0, 2, 0.5); (0, 3, 0.0); (1, 3, 0.5) ])

(* A star whose leaves tie on cardinality and degree: criteria 1 and 2 rank
   them by distinct count, most first, then by id. *)
let test_ties () =
  let q =
    hand_query
      [ (1000, 0.5); (100, 0.5); (100, 0.9); (100, 0.9); (100, 0.2) ]
      [ (0, 1, 0.01); (0, 2, 0.01); (0, 3, 0.01); (0, 4, 0.01) ]
  in
  List.iter
    (fun crit ->
      Alcotest.(check (array int))
        (Augmentation.criterion_name crit ^ ": more distinct values, then the smaller id")
        [| 0; 2; 3; 1; 4 |]
        (Augmentation.generate q crit ~start:0))
    [ Augmentation.Min_cardinality; Augmentation.Max_degree ];
  check_agrees_everywhere "tied keys" q

(* The oracle's running size along a plan. *)
let running_size q plan =
  let placed = Array.make (Query.n_relations q) false in
  let size = ref (Query.cardinality q plan.(0)) in
  placed.(plan.(0)) <- true;
  for i = 1 to Array.length plan - 1 do
    let r = plan.(i) in
    let product =
      List.fold_left
        (fun acc (k, s) ->
          if placed.(k) then
            acc *. Plan_cost_reference.edge_selectivity q ~outer_card:!size ~k ~r s
          else acc)
        1.0
        (Join_graph.neighbors (Query.graph q) r)
    in
    size := Float.max 1.0 (!size *. Query.cardinality q r *. product);
    placed.(r) <- true
  done;
  !size

(* Eighteen relations of 1e18 tuples on a chain of selectivity-1 edges take
   the unclamped running size to [inf]; the next join, over a zero or a
   [-0.] edge, makes it NaN.  From the chain's end, criterion 4 then faces
   NaN keys beside [inf] ones, and every later key is NaN. *)
let test_overflow_to_nan () =
  let big = (1_000_000_000_000_000_000, 1.0) in
  let chain = List.init 17 (fun i -> (i, i + 1, 1.0)) in
  let q =
    hand_query
      (List.init 18 (fun _ -> big) @ [ (10, 0.5); (20, 0.5); (30, 0.9); (40, 0.1); (50, 1.0) ])
      (chain
      @ [
          (17, 18, 0.0); (17, 19, 1.0); (17, 20, -0.0); (18, 19, 0.5); (18, 21, 0.1);
          (19, 22, 0.0); (20, 21, 1.0); (21, 22, 0.3); (20, 22, -0.0);
        ])
  in
  let plan = Augmentation_reference.generate q Augmentation.Min_intermediate_size ~start:0 in
  Alcotest.(check bool) "the running size reaches NaN" true
    (Float.is_nan (running_size q plan));
  Alcotest.(check bool) "inf before that" true
    (running_size q (Array.sub plan 0 18) = Float.infinity);
  check_agrees_everywhere "overflow to inf, then NaN" q

(* Allocation contract: a state allocates its four arrays of [n] words (the
   plan, the placed flags, the candidate slots and each relation's slot),
   4 (n + 1) words with their headers, plus the 2-word [Some charge] of the
   optional argument — for every criterion, and nothing per scored
   candidate.  Counted on one domain; pinned exactly. *)
let test_allocation () =
  List.iter
    (fun (label, q) ->
      let n = Query.n_relations q in
      let start = List.hd (Augmentation.starts q) in
      List.iter
        (fun crit ->
          let scored = ref 0 in
          let charge k = scored := !scored + k in
          let runs = 20 in
          let before = Gc.minor_words () in
          for _ = 1 to runs do
            ignore (Sys.opaque_identity (Augmentation.generate ~charge q crit ~start))
          done;
          let words = Gc.minor_words () -. before in
          let contract = float_of_int (runs * ((4 * (n + 1)) + 2)) in
          if words <> contract then
            Alcotest.failf
              "%s, criterion %d: %.0f minor words over %d states scoring %d candidates; \
               the contract is %.0f"
              label
              (Augmentation.criterion_index crit)
              words runs !scored contract)
        Augmentation.all_criteria)
    [
      ( "default N=50",
        Qgen.generate_query Qgen.default ~n_joins:50 ~rng:(Ljqo_stats.Rng.create 97) );
      ( "graph-dense N=200",
        Qgen.generate_query Helpers.graph_dense ~n_joins:200 ~rng:(Ljqo_stats.Rng.create 42) );
    ]

let suite =
  [
    Alcotest.test_case "criterion indexing" `Quick test_criterion_indexing;
    Alcotest.test_case "starts sorted by cardinality" `Quick
      test_starts_sorted_by_cardinality;
    Alcotest.test_case "generates valid plans" `Quick test_generates_valid_plans;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "min-cardinality greedy" `Quick test_min_cardinality_greedy;
    Alcotest.test_case "max-degree greedy" `Quick test_max_degree_greedy;
    Alcotest.test_case "charge called" `Quick test_charge_called;
    Alcotest.test_case "source drains" `Quick test_source_drains;
    Alcotest.test_case "rejects disconnected" `Quick test_rejects_disconnected;
    Alcotest.test_case "criterion 3 beats criterion 1 (Table 1)" `Slow
      test_criterion3_beats_criterion1_aggregate;
    prop_all_criteria_valid;
    prop_matches_oracle;
    Alcotest.test_case "zero and -0 selectivities match the oracle" `Quick
      test_zero_selectivities;
    Alcotest.test_case "ties break by distinct count, then id" `Quick test_ties;
    Alcotest.test_case "overflow to inf, then NaN, matches the oracle" `Quick
      test_overflow_to_nan;
    Alcotest.test_case "allocates 4 (n + 1) + 2 words per state" `Quick
      test_allocation;
  ]

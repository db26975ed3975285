(* Shared fixtures and utilities for the test suites. *)

open Ljqo_catalog

let memory_model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)

let disk_model = (module Ljqo_cost.Disk_model : Ljqo_cost.Cost_model.S)

let approx ?(rel = 1e-9) ?(abs = 1e-9) a b =
  let scale = Float.max (Float.abs a) (Float.abs b) in
  Float.abs (a -. b) <= abs +. (rel *. scale)

let check_approx ?rel msg a b =
  if not (approx ?rel a b) then
    Alcotest.failf "%s: expected %.17g, got %.17g" msg a b

let rel ?name ?(selections = []) ~id ~card ~distinct () =
  Relation.make ~id ?name ~base_cardinality:card ~selections
    ~distinct_fraction:distinct ()

(* A 3-relation chain A - B - C with easy numbers. *)
let chain3 () =
  let relations =
    [|
      rel ~id:0 ~name:"A" ~card:100 ~distinct:0.5 ();
      rel ~id:1 ~name:"B" ~card:1000 ~distinct:0.1 ();
      rel ~id:2 ~name:"C" ~card:10 ~distinct:1.0 ();
    |]
  in
  let edges =
    [
      { Join_graph.u = 0; v = 1; selectivity = 0.01 };
      { Join_graph.u = 1; v = 2; selectivity = 0.05 };
    ]
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:3 edges)

(* A triangle (cycle) on 3 relations. *)
let triangle () =
  let relations =
    [|
      rel ~id:0 ~name:"A" ~card:100 ~distinct:0.5 ();
      rel ~id:1 ~name:"B" ~card:200 ~distinct:0.25 ();
      rel ~id:2 ~name:"C" ~card:50 ~distinct:1.0 ();
    |]
  in
  let edges =
    [
      { Join_graph.u = 0; v = 1; selectivity = 0.02 };
      { Join_graph.u = 1; v = 2; selectivity = 0.02 };
      { Join_graph.u = 0; v = 2; selectivity = 0.02 };
    ]
  in
  Query.make ~relations ~graph:(Join_graph.make ~n:3 edges)

(* Two components: (A - B) and (C). *)
let disconnected () =
  let relations =
    [|
      rel ~id:0 ~name:"A" ~card:100 ~distinct:0.5 ();
      rel ~id:1 ~name:"B" ~card:200 ~distinct:0.25 ();
      rel ~id:2 ~name:"C" ~card:50 ~distinct:1.0 ();
    |]
  in
  let edges = [ { Join_graph.u = 0; v = 1; selectivity = 0.02 } ] in
  Query.make ~relations ~graph:(Join_graph.make ~n:3 edges)

(* Random connected benchmark query from a seed. *)
let random_query ?(n_joins = 8) seed =
  let rng = Ljqo_stats.Rng.create seed in
  Ljqo_querygen.Benchmark.generate_query Ljqo_querygen.Benchmark.default ~n_joins
    ~rng

(* A query with small cardinalities, for execution tests. *)
let small_exec_query ?(n_joins = 4) seed =
  let rng = Ljqo_stats.Rng.create seed in
  let n = n_joins + 1 in
  let relations =
    Array.init n (fun id ->
        rel ~id ~card:(5 + Ljqo_stats.Rng.int rng 40)
          ~distinct:(0.3 +. Ljqo_stats.Rng.float rng 0.7)
          ())
  in
  (* random spanning tree plus an extra edge sometimes *)
  let edges = ref [] in
  for i = 1 to n - 1 do
    let target = Ljqo_stats.Rng.int rng i in
    let sel =
      1.0
      /. Float.max
           (Relation.distinct_values relations.(i))
           (Relation.distinct_values relations.(target))
    in
    edges := { Join_graph.u = target; v = i; selectivity = sel } :: !edges
  done;
  if n > 2 && Ljqo_stats.Rng.bool rng then begin
    let u = Ljqo_stats.Rng.int rng (n - 1) in
    let v = u + 1 + Ljqo_stats.Rng.int rng (n - u - 1) in
    if not (List.exists (fun e -> (e.Join_graph.u, e.v) = (u, v)) !edges) then
      edges :=
        {
          Join_graph.u;
          v;
          selectivity =
            1.0
            /. Float.max
                 (Relation.distinct_values relations.(u))
                 (Relation.distinct_values relations.(v));
        }
        :: !edges
  end;
  Query.make ~relations ~graph:(Join_graph.make ~n !edges)

(* Bit equality of floats, for the bit-identity contracts. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* The memory model, counting [join_cost] calls (= computed join steps). *)
let counting_model calls : Ljqo_cost.Cost_model.t =
  (module struct
    let name = "counting"

    let join_cost ~is_first ~is_cross input =
      incr calls;
      Ljqo_cost.Memory_model.join_cost ~is_first ~is_cross input

    let scan_cost = Ljqo_cost.Memory_model.scan_cost

    let output_cost = Ljqo_cost.Memory_model.output_cost
  end)

(* Minor words one call of [f] allocates on this domain: the mean over ten
   calls, after one call that warms up whatever [f] sets up once.  On one
   domain [Gc.minor_words] is exact, so a constant allocation reads as a
   whole number. *)
let minor_words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. 10.0

let graph_dense =
  List.find
    (fun (s : Ljqo_querygen.Benchmark.spec) -> s.name = "graph-dense")
    Ljqo_querygen.Benchmark.variations

let qcheck_case ?(count = 100) ~name prop arb =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)

let valid_random_plan query seed =
  Ljqo_core.Random_plan.generate (Ljqo_stats.Rng.create seed) query

(* The plan [0; 1; ...; n - 1]. *)
let identity_plan n = Array.init n (fun i -> i)

(* Run [f] at [jobs] parallel jobs, restoring the job count even when [f]
   fails, so a failing case cannot leave later suites on the worker pool. *)
let with_jobs jobs f =
  let prev = Ljqo_stats.Parallel.default_jobs () in
  Ljqo_stats.Parallel.set_jobs jobs;
  Fun.protect f ~finally:(fun () -> Ljqo_stats.Parallel.set_jobs prev)

(* A single-query batch. *)
let serve service q = (Ljqo_service.Service.serve_batch service [| q |]).(0)

(* Execute [plan] on [data], then measure it against the estimates. *)
let execute ?max_rows ~model q ~data plan =
  Ljqo_feedback.Feedback.(
    measure ~model q ~data (observe ?max_rows q ~data plan))

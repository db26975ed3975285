(* The learned router: feature extraction, sample persistence, the model
   file's roundtrip (its corruption properties are in test_sealed.ml),
   deterministic (jobs-independent) training, routing, online epoch
   pinning, and end-to-end adaptive determinism through the optimizer, the
   batch service and the server. *)

open Ljqo_core
module Features = Ljqo_learn.Features
module Dataset = Ljqo_learn.Dataset
module Model = Ljqo_learn.Model
module Router = Ljqo_learn.Router
module Online = Ljqo_learn.Online
module Evaluate = Ljqo_learn.Evaluate
module Service = Ljqo_service.Service
module Server = Ljqo_service.Server

let sample_of ?(route = "II") ?(ticks = 100) ?(cost = 50.0) ?(lb = 2.0) q =
  { Dataset.features = Features.of_query q; route; ticks; cost; lower_bound = lb }

(* A 16-run training grid: 1 spec x 2 sizes x 1 query x 4 routes x 2
   budget fractions — enough to fit every route, fast enough for `Quick. *)
let tiny_samples ?(jobs = 1) () =
  Dataset.collect ~jobs ~spec_indices:[ 0 ] ~ns:[ 6; 8 ] ~per_n:1 ~seed:11
    ~t_factor:0.5 ~routes:Model.routes ~fractions:[ 0.5; 1.0 ]
    ~model:Helpers.memory_model ()

let tiny_model () =
  match Model.train (tiny_samples ()) with
  | Some m -> m
  | None -> Alcotest.fail "tiny grid trained nothing"

let float_bits_list l = List.map Int64.bits_of_float l

(* --- features ----------------------------------------------------------- *)

let test_features_shape_and_determinism () =
  let q = Helpers.chain3 () in
  let f = Features.of_query q in
  Alcotest.(check int) "width" Features.dim (Array.length f);
  Alcotest.(check int) "names cover the width" Features.dim
    (Array.length Features.names);
  Array.iteri
    (fun i v ->
      if not (Float.is_finite v) then
        Alcotest.failf "feature %s is not finite" Features.names.(i))
    f;
  let f' = Features.of_query q in
  Alcotest.(check bool) "bit-identical on re-extraction" true (f = f');
  let g = Features.of_query (Helpers.triangle ()) in
  Alcotest.(check bool) "different queries differ" true (f <> g)

(* --- dataset ------------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  (* Each line [save_jsonl] writes is one JSON object whose numbers parse
     back to the sample's floats bit for bit. *)
  let samples =
    [
      sample_of (Helpers.chain3 ());
      sample_of ~route:"2PO" ~ticks:7 ~cost:1e9 ~lb:0.125 (Helpers.triangle ());
    ]
  in
  let path = Filename.temp_file "ljqo_samples" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dataset.save_jsonl ~path samples;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per sample" (List.length samples)
        (List.length lines);
      List.iter2
        (fun (s : Dataset.sample) line ->
          let j =
            match Ljqo_obs.Jsonv.parse line with
            | Ok j -> j
            | Error e -> Alcotest.failf "line is not JSON (%s): %s" e line
          in
          let field name =
            match Ljqo_obs.Jsonv.member name j with
            | Some v -> v
            | None -> Alcotest.failf "missing field %S" name
          in
          let num = function
            | Ljqo_obs.Jsonv.Num f -> f
            | _ -> Alcotest.fail "not a number"
          in
          let features =
            match field "features" with
            | Ljqo_obs.Jsonv.List vs -> List.map num vs
            | _ -> Alcotest.fail "features is not a list"
          in
          Alcotest.(check bool) "route" true
            (field "route" = Ljqo_obs.Jsonv.Str s.route);
          Alcotest.(check int) "ticks" s.ticks
            (int_of_float (num (field "ticks")));
          Alcotest.(check bool) "float bits survive" true
            (float_bits_list
               (s.cost :: s.lower_bound :: Array.to_list s.features)
            = float_bits_list
                (num (field "cost") :: num (field "lb") :: features)))
        samples lines)

(* --- training determinism ----------------------------------------------- *)

let test_collect_and_training_jobs_independent () =
  let s1 = tiny_samples ~jobs:1 () in
  let s2 = tiny_samples ~jobs:2 () in
  Alcotest.(check (list string))
    "sample lists bit-identical across jobs"
    (List.map Dataset.to_json_line s1)
    (List.map Dataset.to_json_line s2);
  match (Model.train s1, Model.train s2, Model.train s1) with
  | Some m1, Some m2, Some m1' ->
    Alcotest.(check bool) "models bit-identical across jobs" true
      (Model.equal m1 m2);
    Alcotest.(check bool) "training is repeatable" true (Model.equal m1 m1')
  | _ -> Alcotest.fail "training produced no model"

(* --- model persistence -------------------------------------------------- *)

let test_model_roundtrip () =
  let m = tiny_model () in
  let path = Filename.temp_file "ljqo_model" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Model.save ~path m;
      match Model.load ~path with
      | Error e -> Alcotest.failf "load rejected its own save: %s" e
      | Ok m' -> Alcotest.(check bool) "bit-identical" true (Model.equal m m'))

(* --- routing ------------------------------------------------------------ *)

let test_router_decide_deterministic () =
  let m = tiny_model () in
  let qs = [ Helpers.chain3 (); Helpers.triangle () ] in
  List.iter
    (fun q ->
      let d1 = Router.decide m q ~ticks:500 in
      let d2 = Router.decide m q ~ticks:500 in
      Alcotest.(check bool) "same decision twice" true (d1 = d2);
      match d1 with
      | None -> ()
      | Some (route, t) ->
        Alcotest.(check bool) "routed method is a candidate" true
          (List.mem route Model.routes);
        Alcotest.(check bool) "budget within bounds" true (t >= 1 && t <= 500))
    qs

let test_adaptive_optimize_deterministic () =
  let q =
    (List.nth
       (Array.to_list
          (Ljqo_querygen.Workload.make ~ns:[ 8 ] ~per_n:1 ~seed:3
             Ljqo_querygen.Benchmark.default).Ljqo_querygen.Workload.entries)
       0)
      .Ljqo_querygen.Workload.query
  in
  let optimize method_ ticks =
    Optimizer.optimize ~method_ ~model:Helpers.memory_model ~ticks ~seed:21 q
  in
  let run model =
    let m, ticks, _ = Router.resolve model Methods.Adaptive q ~ticks:400 in
    optimize m ticks
  in
  (* without a model, adaptive is the portfolio at full budget, whether the
     router resolves it or [optimize] runs its own fallback *)
  let portfolio = optimize Methods.Portfolio 400 in
  List.iter
    (fun (label, (r : Optimizer.result)) ->
      Alcotest.(check bool) (label ^ " equals portfolio") true
        (r.plan = portfolio.plan
        && Int64.bits_of_float r.cost = Int64.bits_of_float portfolio.cost))
    [ ("router fallback", run None); ("optimize fallback", optimize Methods.Adaptive 400) ];
  let m = Some (tiny_model ()) in
  let a = run m in
  let b = run m in
  Alcotest.(check bool) "routed runs bit-identical" true
    (a.Optimizer.plan = b.Optimizer.plan
    && Int64.bits_of_float a.Optimizer.cost
       = Int64.bits_of_float b.Optimizer.cost
    && a.Optimizer.ticks_used = b.Optimizer.ticks_used)

(* --- online epochs ------------------------------------------------------ *)

let test_online_epoch_pinning () =
  let m = tiny_model () in
  let st = Online.create ~epoch:2 ~initial:m () in
  Alcotest.(check int) "epoch size" 2 (Online.epoch_size st);
  (* before any boundary the initial model routes *)
  (match Online.await st ~id:0 with
  | Some m0 -> Alcotest.(check bool) "id 0 pins the initial model" true (Model.equal m m0)
  | None -> Alcotest.fail "id 0 lost the initial model");
  let s q = Some (sample_of q) in
  ignore (Online.record st (s (Helpers.chain3 ())));
  ignore (Online.record st (s (Helpers.triangle ())));
  Alcotest.(check int) "two slots recorded" 2 (Online.recorded st);
  (* boundary 2 trains on slots 0-1 and differs from the initial model *)
  (match Online.await st ~id:2 with
  | Some m2 ->
    Alcotest.(check bool) "boundary 2 retrained" true (not (Model.equal m m2))
  | None -> Alcotest.fail "boundary 2 has no model");
  (* ids below the boundary still pin the older model *)
  (match Online.await st ~id:1 with
  | Some m1 -> Alcotest.(check bool) "id 1 still initial" true (Model.equal m m1)
  | None -> Alcotest.fail "id 1 lost its model");
  (* first write wins: re-recording slot 0 is ignored *)
  Online.record_at st ~id:0 None;
  Alcotest.(check int) "double record ignored" 2 (Online.recorded st);
  (* a boundary whose samples train nothing inherits the previous model *)
  Online.record_at st ~id:2 None;
  Online.record_at st ~id:3 None;
  match (Online.await st ~id:4, Online.await st ~id:2) with
  | Some m4, Some m2 ->
    Alcotest.(check bool) "empty epoch inherits" true (Model.equal m4 m2)
  | _ -> Alcotest.fail "boundary 4 has no model"

(* --- service / server --------------------------------------------------- *)

let adaptive_config =
  {
    Service.method_ = Methods.Adaptive;
    methods_config = Methods.default_config;
    model = Helpers.memory_model;
    budget = Service.Time_limit { t_factor = 0.5; kappa = None };
    seed = 42;
  }

let test_adaptive_service_needs_learn () =
  Alcotest.check_raises "refused"
    (Invalid_argument
       "Service.create: the adaptive method needs a learn state (a loaded or \
        online-trained model)")
    (fun () -> ignore (Service.create adaptive_config))

let service_queries () =
  let w =
    Ljqo_querygen.Workload.make ~ns:[ 6; 8 ] ~per_n:3 ~seed:77
      Ljqo_querygen.Benchmark.default
  in
  Array.map (fun (e : Ljqo_querygen.Workload.entry) -> e.query) w.entries

let served_signature served =
  Array.to_list served
  |> List.map (fun (s : Service.served) ->
         (s.index, Int64.bits_of_float s.cost, s.ticks_used, s.plan))

let test_adaptive_serve_batch_jobs_independent () =
  let m = tiny_model () in
  let queries = service_queries () in
  let run jobs =
    let learn = Online.create ~epoch:2 ~initial:m () in
    let service = Service.create ~learn adaptive_config in
    let served = Service.serve_batch ~jobs service queries in
    (served_signature served, Online.model learn, Online.recorded learn)
  in
  let sig1, m1, n1 = run 1 in
  let sig2, m2, n2 = run 4 in
  Alcotest.(check bool) "served results bit-identical" true (sig1 = sig2);
  Alcotest.(check int) "every request recorded" (Array.length queries) n1;
  Alcotest.(check int) "recorded count matches" n1 n2;
  match (m1, m2) with
  | Some m1, Some m2 ->
    Alcotest.(check bool) "refreshed models bit-identical" true (Model.equal m1 m2)
  | _ -> Alcotest.fail "online refresh never happened"

let test_adaptive_server_worker_count_invariant () =
  let m = tiny_model () in
  let queries = service_queries () in
  let run workers =
    let learn = Online.create ~epoch:2 ~initial:m () in
    let server =
      Server.create ~start:false ~learn
        {
          Server.service = adaptive_config;
          workers;
          queue_capacity = Array.length queries + 1;
          tenant_slots = None;
          request_deadline = None;
        }
    in
    Array.iter (fun q -> ignore (Server.submit server q)) queries;
    Server.start server;
    let responses =
      match Server.drain server with
      | Server.Drained rs -> rs
      | Server.Drain_timeout _ -> Alcotest.fail "drain timed out"
    in
    let outcomes =
      List.map
        (fun (r : Server.response) ->
          match r.outcome with
          | Server.Served d ->
            (r.id, Int64.bits_of_float d.Service.d_cost, d.Service.d_plan)
          | Server.Failed e -> Alcotest.failf "request %d failed: %s" r.id e
          | Server.Deadlined -> Alcotest.failf "request %d deadlined" r.id)
        responses
    in
    (outcomes, Online.model learn, Online.recorded learn)
  in
  let o1, m1, n1 = run 1 in
  let o2, _, n2 = run 2 in
  let o4, m4, n4 = run 4 in
  Alcotest.(check bool) "1 vs 2 workers identical" true (o1 = o2);
  Alcotest.(check bool) "1 vs 4 workers identical" true (o1 = o4);
  Alcotest.(check int) "all recorded (1 worker)" (Array.length queries) n1;
  Alcotest.(check int) "all recorded (2 workers)" n1 n2;
  Alcotest.(check int) "all recorded (4 workers)" n1 n4;
  match (m1, m4) with
  | Some m1, Some m4 ->
    Alcotest.(check bool) "final models bit-identical" true (Model.equal m1 m4)
  | _ -> Alcotest.fail "online refresh never happened"

(* --- evaluation --------------------------------------------------------- *)

let test_evaluate_no_model_is_portfolio () =
  let report =
    Evaluate.run ~jobs:2 ~ns:[ 6 ] ~per_n:1 ~seed:5 ~t_factor:0.5
      ~cost_model:Helpers.memory_model None
  in
  Alcotest.(check int) "nine variations" 9 (List.length report.Evaluate.rows);
  Alcotest.(check (list string))
    "column order" [ "II"; "SA"; "2PO"; "portfolio"; "adaptive" ]
    report.Evaluate.methods;
  List.iter
    (fun (row : Evaluate.row) ->
      let v name = Int64.bits_of_float (List.assoc name row.means) in
      Alcotest.(check bool)
        ("adaptive = portfolio on " ^ row.variation)
        true
        (v "adaptive" = v "portfolio"))
    report.Evaluate.rows;
  Alcotest.(check int) "every query fell back" 9
    (List.assoc "fallback" report.Evaluate.route_counts)

let suite =
  [
    Alcotest.test_case "features: shape and determinism" `Quick
      test_features_shape_and_determinism;
    Alcotest.test_case "dataset: jsonl roundtrip at float bit precision" `Quick
      test_jsonl_roundtrip;
    Alcotest.test_case "training: jobs-independent and repeatable" `Quick
      test_collect_and_training_jobs_independent;
    Alcotest.test_case "model: save/load roundtrip" `Quick test_model_roundtrip;
    Alcotest.test_case "router: decide is deterministic" `Quick
      test_router_decide_deterministic;
    Alcotest.test_case "optimizer: adaptive runs bit-identical" `Quick
      test_adaptive_optimize_deterministic;
    Alcotest.test_case "online: epoch pinning" `Quick test_online_epoch_pinning;
    Alcotest.test_case "service: adaptive without learn refused" `Quick
      test_adaptive_service_needs_learn;
    Alcotest.test_case "service: adaptive batch jobs-independent" `Quick
      test_adaptive_serve_batch_jobs_independent;
    Alcotest.test_case "server: adaptive worker-count invariant" `Quick
      test_adaptive_server_worker_count_invariant;
    Alcotest.test_case "evaluate: no model degrades to portfolio" `Quick
      test_evaluate_no_model_is_portfolio;
  ]

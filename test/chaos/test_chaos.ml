(* Chaos suite: every optimization method must terminate with a valid,
   finitely-priced plan when the cost model misbehaves.

   Chaos.wrap injects seeded NaN / infinity / zero / overflowed
   costs into a fraction of all estimator calls; the clamping in
   Ljqo_cost.Plan_cost is the containment wall under test.  The workload is
   the seeded N=30 slice of the paper's benchmark, so a regression here is a
   reproducible counterexample, not a flake. *)

open Ljqo_core
open Ljqo_querygen

let base_model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)

let chaos_seed = 20260806

let workload () = Workload.make ~ns:[ 30 ] ~per_n:30 ~seed:7 Benchmark.default

let ticks = 25_000

let test_faults_are_input_determined () =
  let inputs = [ 1.0; 2.5; 100.0 ] in
  let d1 = Chaos.decide ~seed:1 ~rate:0.5 inputs in
  let d2 = Chaos.decide ~seed:1 ~rate:0.5 inputs in
  Alcotest.(check bool) "same inputs, same fault" true (d1 = d2);
  (* the decision really is seeded: some seed disagrees with seed 1 *)
  let disagrees =
    List.exists
      (fun s -> Chaos.decide ~seed:s ~rate:0.5 inputs <> d1)
      [ 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "seed changes the fault pattern" true disagrees

let test_fault_rate_roughly_honoured () =
  let trials = 2000 in
  let faulted = ref 0 in
  for i = 1 to trials do
    match Chaos.decide ~seed:2 ~rate:0.25 [ float_of_int i ] with
    | Some _ -> incr faulted
    | None -> ()
  done;
  let observed = float_of_int !faulted /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "observed rate %.3f within [0.15, 0.35]" observed)
    true
    (observed > 0.15 && observed < 0.35)

let test_all_methods_survive_chaos () =
  let w = workload () in
  let chaotic = Chaos.wrap ~seed:chaos_seed base_model in
  let failures = ref [] in
  Array.iter
    (fun (e : Workload.entry) ->
      List.iteri
        (fun mi m ->
          let outcome =
            Ljqo_harness.Guard.run ~query_id:e.index (fun () ->
                Optimizer.optimize ~method_:m ~model:chaotic ~ticks
                  ~seed:(e.seed + (137 * mi))
                  e.query)
          in
          match outcome with
          | Ljqo_harness.Guard.Completed r ->
            if not (Plan.is_valid e.query r.plan) then
              failures :=
                Printf.sprintf "%s on q%d: invalid plan" (Methods.name m) e.index
                :: !failures;
            if not (Float.is_finite r.cost && r.cost >= 0.0) then
              failures :=
                Printf.sprintf "%s on q%d: bad cost %h" (Methods.name m) e.index
                  r.cost
                :: !failures
          | g ->
            failures :=
              Printf.sprintf "%s on q%d: %s" (Methods.name m) e.index
                (Ljqo_harness.Guard.describe g)
              :: !failures)
        Methods.all)
    w.Workload.entries;
  match !failures with
  | [] -> ()
  | fs ->
    Alcotest.failf "%d chaos failures:\n%s" (List.length fs)
      (String.concat "\n" (List.rev fs))

let test_server_guard_isolates_crashes () =
  (* Raising chaos in the serving path: a seeded fraction of join costings
     raises mid-request.  The per-request guard must contain each crash —
     the request fails, the worker survives, the queue keeps draining, and
     every accepted request still gets a response. *)
  let w = Workload.make ~ns:[ 10 ] ~per_n:10 ~seed:9 Benchmark.default in
  let queries = Array.map (fun (e : Workload.entry) -> e.query) w.entries in
  let raising =
    Chaos.wrap_raising ~rate:3e-4 ~seed:chaos_seed base_model
  in
  let module Obs = Ljqo_obs.Obs in
  let module Server = Ljqo_service.Server in
  let module Service = Ljqo_service.Service in
  Obs.set_enabled true;
  Obs.reset ();
  let server =
    Server.create
      {
        Server.service =
          {
            Service.method_ = Methods.IAI;
            methods_config = Methods.default_config;
            model = raising;
            budget = Service.Fixed_ticks ticks;
            seed = 5;
          };
        workers = 2;
        queue_capacity = 16;
        tenant_slots = None;
        request_deadline = None;
      }
  in
  Array.iter
    (fun q ->
      match Server.submit_wait server q with
      | Server.Accepted _ -> ()
      | Server.Shed _ -> Alcotest.fail "unexpected shed")
    queries;
  let responses =
    match Server.drain server with
    | Server.Drained rs -> rs
    | Server.Drain_timeout { pending; _ } ->
      Alcotest.failf "queue stopped draining: %d pending after a crash" pending
  in
  Alcotest.(check int) "every accepted request answered"
    (Array.length queries) (List.length responses);
  let failed, served =
    List.partition
      (fun (r : Server.response) ->
        match r.outcome with Server.Failed _ -> true | _ -> false)
      responses
  in
  Alcotest.(check bool) "some requests crashed" true (failed <> []);
  Alcotest.(check bool) "the workers survived to serve others" true
    (served <> []);
  List.iter
    (fun (r : Server.response) ->
      match r.outcome with
      | Server.Failed e ->
        Alcotest.(check bool) "failure text names the injected fault" true
          (let re = "Injected" in
           let len = String.length re in
           let rec find i =
             i + len <= String.length e && (String.sub e i len = re || find (i + 1))
           in
           find 0)
      | _ -> ())
    failed;
  let st = Server.stats server in
  Alcotest.(check int) "stats count the failures" (List.length failed) st.failed;
  let counters = (Obs.snapshot ()).Obs.counters in
  Alcotest.(check (option int)) "service.failed counter incremented"
    (Some (List.length failed))
    (List.assoc_opt "service.failed" counters);
  Obs.reset ();
  Obs.set_enabled false

let test_chaos_runs_reproducible () =
  let q = (workload ()).Workload.entries.(0).query in
  let chaotic = Chaos.wrap ~seed:chaos_seed base_model in
  let run () =
    (Optimizer.optimize ~method_:Methods.IAI ~model:chaotic ~ticks ~seed:5 q)
      .cost
  in
  Alcotest.(check bool) "same faults, same result (bitwise)" true
    (Int64.bits_of_float (run ()) = Int64.bits_of_float (run ()))

let () =
  Alcotest.run "ljqo-chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "faults are input-determined" `Quick
            test_faults_are_input_determined;
          Alcotest.test_case "fault rate roughly honoured" `Quick
            test_fault_rate_roughly_honoured;
          Alcotest.test_case "all nine methods survive chaos" `Slow
            test_all_methods_survive_chaos;
          Alcotest.test_case "server guard isolates raising chaos" `Quick
            test_server_guard_isolates_crashes;
          Alcotest.test_case "chaos runs are reproducible" `Quick
            test_chaos_runs_reproducible;
        ] );
    ]

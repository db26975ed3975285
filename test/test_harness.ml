open Ljqo_core
open Ljqo_harness
module Parallel = Ljqo_stats.Parallel

let mem = Helpers.memory_model

let tiny_workload () =
  Ljqo_querygen.Workload.make ~ns:[ 5; 8 ] ~per_n:2 ~seed:11
    Ljqo_querygen.Benchmark.default

let test_parallel_map_matches_sequential () =
  let a = Array.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "jobs=1" (Array.map f a) (Parallel.map_array ~jobs:1 f a);
  Alcotest.(check (array int)) "jobs=4" (Array.map f a) (Parallel.map_array ~jobs:4 f a);
  Alcotest.(check (array int)) "jobs>n" (Array.map f a)
    (Parallel.map_array ~jobs:100 f a);
  Alcotest.(check (array int)) "empty" [||] (Parallel.map_array ~jobs:4 f [||])

let test_parallel_propagates_exceptions () =
  match
    Parallel.map_array ~jobs:3
      (fun x -> if x = 5 then failwith "boom" else x)
      (Array.init 10 Fun.id)
  with
  | exception _ -> ()
  | _ -> Alcotest.fail "worker exception swallowed"

let test_parallel_isolates_crashes () =
  let slots =
    Parallel.map_array_result ~jobs:3
      (fun x -> if x = 5 then failwith "boom" else 2 * x)
      (Array.init 10 Fun.id)
  in
  Array.iteri
    (fun i -> function
      | Parallel.Done v ->
        if i = 5 then Alcotest.fail "crashing item reported as Done";
        Alcotest.(check int) "sibling unaffected" (2 * i) v
      | Parallel.Raised { exn; _ } ->
        Alcotest.(check int) "only item 5 crashed" 5 i;
        Alcotest.(check bool) "original exception kept" true
          (exn = Failure "boom"))
    slots

(* The distinct domains that ran a batch of [n] items at [jobs]; each item
   sleeps long enough for an idle worker to wake and join. *)
let batch_domains ~jobs n =
  Parallel.map_array ~jobs
    (fun () ->
      Unix.sleepf 0.005;
      (Domain.self () :> int))
    (Array.make n ())
  |> Array.to_list |> List.sort_uniq compare

let others ids = List.filter (fun d -> d <> (Domain.self () :> int)) ids

let test_pool_reuses_workers () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  let first = batch_domains ~jobs:2 8 in
  let second = batch_domains ~jobs:2 8 in
  Alcotest.(check bool) "one worker serves both batches" true
    (List.length (others (List.sort_uniq compare (first @ second))) <= 1)

let test_pool_capped_by_cores () =
  Alcotest.(check bool) "at most one domain per core" true
    (List.length (batch_domains ~jobs:100 40) <= Domain.recommended_domain_count ())

(* A call made while a batch is in flight runs inline: nested in an item, or
   from another domain.  Each returns [Array.map]'s result. *)
let test_pool_busy_calls_run_inline () =
  let a = Array.init 20 Fun.id and f x = (3 * x) + 1 in
  let inline_map () =
    let here = (Domain.self () :> int) in
    let r = Parallel.map_array ~jobs:2 (fun x -> (f x, (Domain.self () :> int))) a in
    (Array.map fst r, Array.for_all (fun (_, d) -> d = here) r)
  in
  Array.iter
    (fun (r, inline) ->
      Alcotest.(check (array int)) "nested" (Array.map f a) r;
      Alcotest.(check bool) "nested call ran inline" true inline)
    (Parallel.map_array ~jobs:2 (fun () -> inline_map ()) [| (); () |]);
  let started = Atomic.make false and finished = Atomic.make false in
  let other =
    Domain.spawn (fun () ->
        while not (Atomic.get started) do
          Unix.sleepf 0.0005
        done;
        Fun.protect inline_map ~finally:(fun () -> Atomic.set finished true))
  in
  Parallel.map_array ~jobs:2
    (fun i ->
      if i = 0 then begin
        Atomic.set started true;
        let give_up = Unix.gettimeofday () +. 10.0 in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < give_up do
          Unix.sleepf 0.001
        done
      end)
    [| 0; 1 |]
  |> ignore;
  let r, inline = Domain.join other in
  Alcotest.(check (array int)) "from another domain" (Array.map f a) r;
  Alcotest.(check bool) "concurrent call ran inline" true inline

let test_pool_survives_a_raising_item () =
  (match
     Parallel.map_array ~jobs:2
       (fun x ->
         Unix.sleepf 0.002;
         if x = 3 then failwith "boom" else x)
       (Array.init 8 Fun.id)
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "worker exception swallowed");
  Alcotest.(check (array int)) "next batch" (Array.init 8 succ)
    (Parallel.map_array ~jobs:2 succ (Array.init 8 Fun.id));
  if Domain.recommended_domain_count () >= 2 then
    Alcotest.(check bool) "a worker still joins" true
      (others (batch_domains ~jobs:2 20) <> [])

let test_guard_outcomes () =
  (match Guard.run ~query_id:3 (fun () -> 41 + 1) with
  | Guard.Completed 42 -> ()
  | g -> Alcotest.failf "expected completion, got %s" (Guard.describe g));
  (match Guard.run ~query_id:7 (fun () -> failwith "kaboom") with
  | Guard.Crashed { query_id = 7; exn; _ } ->
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "exception text captured" true (contains exn "kaboom")
  | g -> Alcotest.failf "expected crash, got %s" (Guard.describe g));
  match Guard.run ~query_id:9 (fun () -> raise Budget.Deadline_exceeded) with
  | Guard.Timed_out { query_id = 9 } -> ()
  | g -> Alcotest.failf "expected timeout, got %s" (Guard.describe g)

(* A method that hangs (burning budget forever) is cut off by its wall-clock
   deadline and recorded as timed out; its siblings complete normally. *)
let test_deadline_isolates_hung_run () =
  let hang () =
    (* every clock read advances one second, so the deadline fires at the
       first strided check *)
    let now = ref 0.0 in
    let clock () =
      now := !now +. 1.0;
      !now
    in
    let b = Budget.create ~deadline:0.5 ~clock ~ticks:0 () in
    while true do
      Budget.charge b 1
    done
  in
  let slots =
    Parallel.map_array_result ~jobs:2
      (fun i ->
        Guard.run ~query_id:i (fun () ->
            if i = 1 then begin
              hang ();
              assert false
            end
            else i * 10))
      [| 0; 1; 2 |]
  in
  Array.iteri
    (fun i slot ->
      match slot with
      | Parallel.Done (Guard.Completed v) ->
        Alcotest.(check int) "sibling result" (i * 10) v
      | Parallel.Done (Guard.Timed_out { query_id }) ->
        Alcotest.(check int) "only the hung run times out" 1 i;
        Alcotest.(check int) "timeout names the query" 1 query_id
      | Parallel.Done (Guard.Crashed f) ->
        Alcotest.failf "unexpected crash: %s" f.Guard.exn
      | Parallel.Raised _ -> Alcotest.fail "guard let an exception escape")
    slots

let run_tiny () =
  let workload = tiny_workload () in
  Driver.run_experiment ~workload ~methods:Methods.[ II; IAI ] ~model:mem
    ~tfactors:[ 0.5; 9.0 ] ~replicates:2 ()

let test_experiment_shapes () =
  let o = run_tiny () in
  Alcotest.(check int) "methods" 2 (List.length o.Driver.methods);
  Alcotest.(check (list (float 1e-9))) "tfactors sorted" [ 0.5; 9.0 ] o.Driver.tfactors;
  Alcotest.(check int) "queries" 4 o.Driver.n_queries;
  Array.iter
    (Array.iter (fun v ->
         if v < 1.0 -. 1e-9 || v > 10.0 +. 1e-9 then
           Alcotest.failf "scaled average out of range: %f" v))
    o.Driver.averages

let test_experiment_monotone_in_time () =
  let o = run_tiny () in
  Array.iter
    (fun row ->
      Alcotest.(check bool) "more time helps or ties" true (row.(1) <= row.(0) +. 1e-9))
    o.Driver.averages

let test_experiment_deterministic_across_jobs () =
  let o1 = run_tiny () in
  let o2 = Helpers.with_jobs 3 run_tiny in
  Alcotest.(check bool) "bit-identical across job counts" true
    (o1.Driver.averages = o2.Driver.averages)

let test_outcome_table_render () =
  let o = run_tiny () in
  let t = Driver.outcome_table ~title:"demo" o in
  let s = Ljqo_report.Table.render t in
  Alcotest.(check bool) "mentions II" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 1))

(* A memory model that counts join_cost calls, to prove a resumed run really
   skips checkpointed queries rather than recomputing them.  The name matches
   the plain model so the configuration fingerprint is unchanged. *)
let counting_model counter : Ljqo_cost.Cost_model.t =
  let module M = Ljqo_cost.Memory_model in
  (module struct
    let name = M.name

    let join_cost ~is_first ~is_cross input =
      Atomic.incr counter;
      M.join_cost ~is_first ~is_cross input

    let scan_cost = M.scan_cost

    let output_cost = M.output_cost
  end)

let with_temp_dir f =
  let dir = Filename.temp_file "ljqo_ckpt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_kill_and_resume_bit_identical () =
  with_temp_dir (fun dir ->
      let workload = tiny_workload () in
      let run ~resume model =
        Driver.run_experiment ~workload ~methods:Methods.[ II; IAI ] ~model
          ~tfactors:[ 0.5; 9.0 ] ~replicates:2
          ~checkpoint:{ Checkpoint.dir; resume }
          ~run_label:"resume-test" ()
      in
      let calls_full = Atomic.make 0 in
      let o1 = run ~resume:false (counting_model calls_full) in
      (* Simulate a mid-run kill: keep the header and the first two completed
         records, then a torn (half-written) record such as a SIGKILL during
         the final append would leave. *)
      let path = Filename.concat dir "resume-test.ckpt" in
      (match read_lines path with
      | header :: r1 :: r2 :: r3 :: _ ->
        let oc = open_out path in
        output_string oc (header ^ "\n" ^ r1 ^ "\n" ^ r2 ^ "\n");
        output_string oc (String.sub r3 0 (String.length r3 / 2));
        close_out oc
      | _ -> Alcotest.fail "expected a header and at least three records");
      let calls_resumed = Atomic.make 0 in
      let o2 = run ~resume:true (counting_model calls_resumed) in
      Alcotest.(check bool) "averages bit-identical" true
        (o1.Driver.averages = o2.Driver.averages);
      Alcotest.(check bool) "outlier fractions bit-identical" true
        (o1.Driver.outlier_fractions = o2.Driver.outlier_fractions);
      Alcotest.(check bool) "resume recomputed something (torn record)" true
        (Atomic.get calls_resumed > 0);
      Alcotest.(check bool) "resume skipped the stored queries" true
        (Atomic.get calls_resumed < Atomic.get calls_full);
      (* a second resume finds everything stored and computes nothing *)
      let calls_noop = Atomic.make 0 in
      let o3 = run ~resume:true (counting_model calls_noop) in
      Alcotest.(check bool) "fully stored run computes nothing" true
        (Atomic.get calls_noop = 0);
      Alcotest.(check bool) "and is still identical" true
        (o1.Driver.averages = o3.Driver.averages))

(* --- checkpoint records (corruption properties: test_sealed.ml) -------- *)

let sample_record () =
  {
    Checkpoint.timeouts = 3;
    out = [| [| 1.5; -0.0 |]; [| Float.pi; 6.02e23 |] |];
  }

let float_bits r = Array.map (Array.map Int64.bits_of_float) r.Checkpoint.out

let test_record_line_roundtrip () =
  let r = sample_record () in
  match Checkpoint.parse_record (Checkpoint.record_line 7 r) with
  | Some (7, r') ->
    Alcotest.(check int) "timeouts" r.Checkpoint.timeouts r'.Checkpoint.timeouts;
    Alcotest.(check bool) "bit-identical floats" true (float_bits r = float_bits r')
  | _ -> Alcotest.fail "canonical line must parse"

(* End to end: corrupt one digit of a stored record, resume, and the
   experiment must recompute that query and still match the uninterrupted
   outcome bit for bit. *)
let test_corrupted_checkpoint_recomputed_not_trusted () =
  with_temp_dir (fun dir ->
      let workload = tiny_workload () in
      let run ~resume model =
        Driver.run_experiment ~workload ~methods:Methods.[ II ] ~model
          ~tfactors:[ 9.0 ] ~replicates:1
          ~checkpoint:{ Checkpoint.dir; resume }
          ~run_label:"corrupt-test" ()
      in
      let calls_full = Atomic.make 0 in
      let o1 = run ~resume:false (counting_model calls_full) in
      let path = Filename.concat dir "corrupt-test.ckpt" in
      (match read_lines path with
      | header :: r1 :: rest ->
        (* flip a hex digit inside the first record's payload (well clear of
           the trailing 32-char digest) *)
        let b = Bytes.of_string r1 in
        let k = Bytes.length b - 40 in
        Bytes.set b k (if Bytes.get b k = '0' then '1' else '0');
        let oc = open_out path in
        output_string oc (String.concat "\n" ((header :: Bytes.to_string b :: rest) @ [ "" ]));
        close_out oc
      | _ -> Alcotest.fail "expected a header and at least one record");
      let calls = Atomic.make 0 in
      let o2 = run ~resume:true (counting_model calls) in
      Alcotest.(check bool) "corrupted record recomputed" true (Atomic.get calls > 0);
      Alcotest.(check bool) "still bit-identical" true
        (o1.Driver.averages = o2.Driver.averages))

let test_resume_rejects_other_configuration () =
  with_temp_dir (fun dir ->
      let workload = tiny_workload () in
      let run ~resume ~seed =
        Driver.run_experiment ~workload ~methods:Methods.[ II ] ~model:mem ~seed
          ~tfactors:[ 9.0 ] ~replicates:1
          ~checkpoint:{ Checkpoint.dir; resume }
          ~run_label:"fingerprint-test" ()
      in
      let o1 = run ~resume:false ~seed:1 in
      (* Same label, different seed: the fingerprint differs, so resuming must
         start fresh instead of reusing the stored bits. *)
      let o2 = run ~resume:true ~seed:2 in
      let o2' = run ~resume:false ~seed:2 in
      Alcotest.(check bool) "foreign checkpoints ignored" true
        (o2.Driver.averages = o2'.Driver.averages);
      ignore o1)

let test_driver_records_crashes () =
  (* A poisoned model makes every run raise: the experiment survives, drops
     the queries, and reports them. *)
  let poisoned : Ljqo_cost.Cost_model.t =
    (module struct
      let name = "poisoned"

      let join_cost ~is_first:(_ : bool) ~is_cross:(_ : bool)
          (_ : Ljqo_cost.Cost_model.join_input) : unit =
        failwith "estimator bug"

      let scan_cost ~card:(_ : float) : float = failwith "estimator bug"

      let output_cost ~card:(_ : float) : float = failwith "estimator bug"
    end)
  in
  let workload = tiny_workload () in
  let o =
    Driver.run_experiment ~workload ~methods:Methods.[ II ] ~model:poisoned
      ~tfactors:[ 9.0 ] ~replicates:1 ()
  in
  Alcotest.(check int) "every query dropped" o.Driver.n_queries o.Driver.n_crashed;
  Alcotest.(check int) "crash details kept" o.Driver.n_crashed
    (List.length o.Driver.crashes);
  Array.iter
    (Array.iter (fun v ->
         Alcotest.(check bool) "empty cells are NaN" true (Float.is_nan v)))
    o.Driver.averages;
  (* and the table still renders, with the drop annotated in the title *)
  let t = Driver.outcome_table ~title:"poisoned" o in
  Alcotest.(check bool) "table renders" true
    (String.length (Ljqo_report.Table.render t) > 0)

let test_heuristic_state_experiment () =
  let workload = tiny_workload () in
  let states =
    [
      (fun query ~charge ->
        let remaining = ref (Augmentation.starts query) in
        fun () ->
          match !remaining with
          | [] -> None
          | s :: rest ->
            remaining := rest;
            Some (Augmentation.generate ~charge query Augmentation.default_criterion ~start:s));
    ]
  in
  let averages =
    Driver.heuristic_state_experiment ~workload ~model:mem ~tfactors:[ 1.5; 9.0 ]
      ~states ()
  in
  Alcotest.(check int) "one source" 1 (Array.length averages);
  Array.iter
    (fun v ->
      if v < 1.0 -. 1e-9 || v > 10.0 +. 1e-9 then
        Alcotest.failf "scaled average out of range: %f" v)
    averages.(0)

let suite =
  [
    Alcotest.test_case "parallel map matches sequential" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel propagates exceptions" `Quick
      test_parallel_propagates_exceptions;
    Alcotest.test_case "parallel isolates crashes" `Quick
      test_parallel_isolates_crashes;
    Alcotest.test_case "pool reuses its workers" `Quick test_pool_reuses_workers;
    Alcotest.test_case "pool capped by cores" `Quick test_pool_capped_by_cores;
    Alcotest.test_case "busy pool runs calls inline" `Quick
      test_pool_busy_calls_run_inline;
    Alcotest.test_case "pool survives a raising item" `Quick
      test_pool_survives_a_raising_item;
    Alcotest.test_case "guard outcomes" `Quick test_guard_outcomes;
    Alcotest.test_case "deadline isolates a hung run" `Quick
      test_deadline_isolates_hung_run;
    Alcotest.test_case "kill and resume is bit-identical" `Quick
      test_kill_and_resume_bit_identical;
    Alcotest.test_case "record line round-trips" `Quick test_record_line_roundtrip;
    Alcotest.test_case "corrupted checkpoint recomputed, not trusted" `Quick
      test_corrupted_checkpoint_recomputed_not_trusted;
    Alcotest.test_case "resume rejects other configurations" `Quick
      test_resume_rejects_other_configuration;
    Alcotest.test_case "driver records crashes" `Quick test_driver_records_crashes;
    Alcotest.test_case "experiment shapes" `Quick test_experiment_shapes;
    Alcotest.test_case "experiment monotone in time" `Quick
      test_experiment_monotone_in_time;
    Alcotest.test_case "deterministic across job counts" `Quick
      test_experiment_deterministic_across_jobs;
    Alcotest.test_case "outcome table renders" `Quick test_outcome_table_render;
    Alcotest.test_case "heuristic state experiment" `Quick
      test_heuristic_state_experiment;
  ]

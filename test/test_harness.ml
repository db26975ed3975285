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

let run_tiny ?(jobs = 1) () =
  let workload = tiny_workload () in
  ignore jobs;
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
  Parallel.set_jobs 3;
  let workload = tiny_workload () in
  let o2 =
    Driver.run_experiment ~workload ~methods:Methods.[ II; IAI ] ~model:mem
      ~tfactors:[ 0.5; 9.0 ] ~replicates:2 ()
  in
  Parallel.set_jobs 1;
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

    let join_cost input =
      Atomic.incr counter;
      M.join_cost input

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

      let join_cost (_ : Ljqo_cost.Cost_model.join_input) : float =
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

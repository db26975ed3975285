(* Benchmark harness entry point: regenerates every table and figure of the
   paper's evaluation section.

     dune exec bench/main.exe                    # all experiments, default scale
     dune exec bench/main.exe -- table1 fig4     # a subset
     dune exec bench/main.exe -- --full          # the paper's query counts
     dune exec bench/main.exe -- --csv results/  # also write CSVs
     dune exec bench/main.exe -- micro           # bechamel micro-benchmarks *)

let all_experiments =
  [ "table1"; "table2"; "table3"; "fig4"; "fig5"; "fig6"; "fig7" ]

(* Extension experiments beyond the paper's artifacts (see DESIGN.md). *)
let extension_experiments =
  [ "optgap"; "space"; "bushy"; "ablation"; "sg88"; "dp"; "cache" ]

let usage () =
  prerr_endline
    "usage: main.exe [EXPERIMENT...] [--full] [--per-n K] [--replicates R]\n\
    \                [--seed S] [--kappa K] [--csv DIR] [--jobs J]\n\
    \                [--methods M1,M2,...] [--deadline SECS]\n\
    \                [--checkpoint-dir DIR] [--resume]\n\
    \                [--metrics] [--metrics-out FILE] [--trace FILE]\n\
    \                [--trace-sample N] [--trajectories DIR]\n\
     paper experiments:     table1 table2 table3 fig4 fig5 fig6 fig7 (or: all)\n\
     extension experiments: optgap space bushy ablation sg88 dp cache (or:\n\
    \                        extensions)\n\
     micro-benchmarks:      micro [--micro-quota SECS] [--micro-out FILE]\n\
     --methods M1,M2,...    run these methods (II, SA, ..., portfolio) instead\n\
    \                        of the built-in sets of table3, fig4-fig7, ablation\n\
     --deadline SECS        abort any single method run after SECS wall-clock\n\
     --checkpoint-dir DIR   persist per-query results under DIR as they finish\n\
     --resume               skip queries already checkpointed (requires\n\
    \                        --checkpoint-dir)\n\
     --metrics              collect search counters; write them as JSON on exit\n\
     --metrics-out FILE     where --metrics writes (default\n\
    \                        results/METRICS_bench.json)\n\
     --trace FILE           stream sampled trace events to FILE as JSONL\n\
     --trace-sample N       keep every Nth event per event type (default 1)\n\
     --trajectories DIR     write every run's incumbent trajectory to\n\
    \                        DIR/trajectories.jsonl (learn's Dataset format)";
  exit 2

type options = {
  mutable experiments : string list;
  mutable scale : Ljqo_harness.Driver.scale;
  mutable seed : int;
  mutable kappa : int option;
  mutable methods : Ljqo_core.Methods.t list option;
  mutable csv_dir : string option;
  mutable deadline : float option;
  mutable checkpoint_dir : string option;
  mutable resume : bool;
  mutable micro_quota : float option;
  mutable micro_out : string option;
  mutable metrics : bool;
  mutable metrics_out : string;
  mutable trace : string option;
  mutable trace_sample : int;
  mutable trajectories : string option;
}

(* Option arguments are validated here, not at first use deep inside an
   experiment: a typo'd flag must fail fast with a clear message, never
   crash mid-run or get silently clamped. *)
let int_arg ~flag ~min v =
  match int_of_string_opt v with
  | Some n when n >= min -> n
  | Some _ ->
    prerr_endline
      (Printf.sprintf "%s wants an integer >= %d, got: %s" flag min v);
    usage ()
  | None ->
    prerr_endline (Printf.sprintf "%s wants an integer, got: %s" flag v);
    usage ()

let parse_args () =
  let o =
    {
      experiments = [];
      scale = Ljqo_harness.Driver.default_scale;
      seed = 42;
      kappa = None;
      methods = None;
      csv_dir = None;
      deadline = None;
      checkpoint_dir = None;
      resume = false;
      micro_quota = None;
      micro_out = None;
      metrics = false;
      metrics_out = Filename.concat "results" "METRICS_bench.json";
      trace = None;
      trace_sample = 1;
      trajectories = None;
    }
  in
  let rec go = function
    | [] -> ()
    | "--full" :: rest ->
      o.scale <- Ljqo_harness.Driver.paper_scale;
      go rest
    | "--per-n" :: v :: rest ->
      o.scale <- { o.scale with per_n = int_arg ~flag:"--per-n" ~min:1 v };
      go rest
    | "--replicates" :: v :: rest ->
      o.scale <- { o.scale with replicates = int_arg ~flag:"--replicates" ~min:1 v };
      go rest
    | "--seed" :: v :: rest ->
      o.seed <- int_arg ~flag:"--seed" ~min:0 v;
      go rest
    | "--kappa" :: v :: rest ->
      o.kappa <- Some (int_arg ~flag:"--kappa" ~min:1 v);
      go rest
    | "--csv" :: v :: rest ->
      o.csv_dir <- Some v;
      go rest
    | "--deadline" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> o.deadline <- Some s
      | _ ->
        prerr_endline ("--deadline wants a positive number of seconds, got: " ^ v);
        usage ());
      go rest
    | "--checkpoint-dir" :: v :: rest ->
      o.checkpoint_dir <- Some v;
      go rest
    | "--resume" :: rest ->
      o.resume <- true;
      go rest
    | "--micro-quota" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> o.micro_quota <- Some s
      | _ ->
        prerr_endline ("--micro-quota wants a positive number of seconds, got: " ^ v);
        usage ());
      go rest
    | "--micro-out" :: v :: rest ->
      o.micro_out <- Some v;
      go rest
    | "--metrics" :: rest ->
      o.metrics <- true;
      go rest
    | "--metrics-out" :: v :: rest ->
      o.metrics <- true;
      o.metrics_out <- v;
      go rest
    | "--trace" :: v :: rest ->
      o.trace <- Some v;
      go rest
    | "--trace-sample" :: v :: rest ->
      o.trace_sample <- int_arg ~flag:"--trace-sample" ~min:1 v;
      go rest
    | "--trajectories" :: v :: rest ->
      (* Fail fast: create the directory if missing and prove it writable
         before any experiment runs, not after hours of work. *)
      (try if not (Sys.file_exists v) then Sys.mkdir v 0o755
       with Sys_error e ->
         prerr_endline ("--trajectories: cannot create " ^ v ^ ": " ^ e);
         usage ());
      if not (Sys.is_directory v) then begin
        prerr_endline ("--trajectories wants a directory, got: " ^ v);
        usage ()
      end;
      let probe = Filename.concat v ".ljqo-write-probe" in
      (match open_out probe with
      | oc ->
        close_out oc;
        Sys.remove probe
      | exception Sys_error e ->
        prerr_endline ("--trajectories: directory is not writable: " ^ e);
        usage ());
      o.trajectories <- Some v;
      go rest
    | ("-j" | "--jobs") :: v :: rest ->
      Ljqo_stats.Parallel.set_jobs (int_arg ~flag:"--jobs" ~min:1 v);
      go rest
    | "--methods" :: v :: rest ->
      let names =
        List.filter (fun p -> p <> "")
          (List.map String.trim (String.split_on_char ',' v))
      in
      if names = [] then begin
        prerr_endline
          ("--methods wants a comma-separated list of methods, got: " ^ v);
        usage ()
      end;
      o.methods <-
        Some
          (List.map
             (fun name ->
               match Ljqo_core.Methods.of_name name with
               | Some Ljqo_core.Methods.Adaptive ->
                 (* It would quietly run its portfolio fallback. *)
                 prerr_endline
                   "--methods: adaptive needs a routing model, which the \
                    bench does not load";
                 usage ()
               | Some m -> m
               | None ->
                 prerr_endline ("--methods: unknown method: " ^ name);
                 usage ())
             names);
      go rest
    | "all" :: rest ->
      o.experiments <- o.experiments @ all_experiments;
      go rest
    | "extensions" :: rest ->
      o.experiments <- o.experiments @ extension_experiments;
      go rest
    | exp :: rest
      when List.mem exp (("micro" :: all_experiments) @ extension_experiments) ->
      o.experiments <- o.experiments @ [ exp ];
      go rest
    | arg :: _ ->
      prerr_endline ("unknown argument: " ^ arg);
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if o.resume && o.checkpoint_dir = None then begin
    prerr_endline "--resume requires --checkpoint-dir DIR (nothing to resume from)";
    usage ()
  end;
  if o.experiments = [] then o.experiments <- all_experiments;
  o

let () =
  Printexc.record_backtrace true;
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning);
  let o = parse_args () in
  Option.iter
    (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
    o.csv_dir;
  let scale = o.scale and seed = o.seed and csv_dir = o.csv_dir in
  let kappa = o.kappa and deadline = o.deadline and methods = o.methods in
  let checkpoint =
    Option.map
      (fun dir -> { Ljqo_harness.Checkpoint.dir; resume = o.resume })
      o.checkpoint_dir
  in
  let module Obs = Ljqo_obs.Obs in
  if o.metrics || o.trajectories <> None then Obs.set_enabled true;
  if o.metrics || o.trace <> None then Obs.set_spans true;
  Option.iter (fun path -> Obs.trace_to ~sample:o.trace_sample ~path ()) o.trace;
  (* Idempotent flush, hooked both into [Fun.protect] (normal return and
     exceptions) and [at_exit] (anything that calls [exit] mid-run), so a
     dying run still leaves a parseable metrics file and a closed trace. *)
  let flushed = ref false in
  let flush () =
    if not !flushed then begin
      flushed := true;
      if o.metrics then Obs.write_metrics ~path:o.metrics_out;
      Option.iter
        (fun dir ->
          let path = Filename.concat dir "trajectories.jsonl" in
          let trajs = Obs.trajectories () in
          Ljqo_learn.Dataset.save_trajectories ~path trajs;
          Printf.printf "[trajectories: wrote %s (%d runs)]\n%!" path
            (List.length trajs))
        o.trajectories;
      Obs.trace_close ()
    end
  in
  at_exit flush;
  Fun.protect ~finally:flush
  @@ fun () ->
  List.iter
    (fun exp ->
      let t0 = Sys.time () in
      (match exp with
      | "table1" -> Exp_table1.run ?kappa ~scale ~seed ~csv_dir ()
      | "table2" -> Exp_table2.run ?kappa ~scale ~seed ~csv_dir ()
      | "table3" ->
        Exp_table3.run ?kappa ?deadline ?checkpoint ?methods ~scale ~seed ~csv_dir ()
      | "fig4" ->
        Exp_fig4.run ?kappa ?deadline ?checkpoint ?methods ~scale ~seed ~csv_dir ()
      | "fig5" ->
        Exp_fig5.run ?kappa ?deadline ?checkpoint ?methods ~scale ~seed ~csv_dir ()
      | "fig6" ->
        Exp_fig6.run ?kappa ?deadline ?checkpoint ?methods ~scale ~seed ~csv_dir ()
      | "fig7" ->
        Exp_fig7.run ?kappa ?deadline ?checkpoint ?methods ~scale ~seed ~csv_dir ()
      | "ablation" ->
        Exp_ablation.run ?kappa ?deadline ?checkpoint ?methods ~scale ~seed ~csv_dir ()
      | "optgap" -> Exp_optgap.run ?kappa ~scale ~seed ~csv_dir ()
      | "space" -> Exp_space.run ?kappa ~scale ~seed ~csv_dir ()
      | "bushy" -> Exp_bushy.run ?kappa ~scale ~seed ~csv_dir ()
      | "sg88" -> Exp_sg88.run ?kappa ~scale ~seed ~csv_dir ()
      | "dp" -> Exp_dp.run ?kappa ~scale ~seed ~csv_dir ()
      | "cache" -> Exp_cache.run ?kappa ~scale ~seed ~csv_dir ()
      | "micro" -> Micro.run ?quota:o.micro_quota ?out:o.micro_out ()
      | _ -> assert false);
      Printf.printf "[%s done in %.1fs]\n\n%!" exp (Sys.time () -. t0))
    o.experiments

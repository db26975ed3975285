(* What the four workloads share: timing and order statistics, the output
   checks, the deterministic-cell ledger, span accounting and the JSONL
   trace dump.  Every measurement is taken from outside the library: the
   benchmark times its own calls into public functions and reads what
   [Ljqo_obs.Obs] already records. *)

module Obs = Ljqo_obs.Obs
module Query = Ljqo_catalog.Query
module Join_graph = Ljqo_catalog.Join_graph
module Plan_cost = Ljqo_cost.Plan_cost
module Rng = Ljqo_stats.Rng

let now = Unix.gettimeofday

let model : Ljqo_cost.Cost_model.t = (module Ljqo_cost.Memory_model)

type ctx = { workload : string; seed : int; seconds : float; traced : bool }

(* A stream seed derived from the run seed and a few coordinates, so no two
   inputs of a run share a stream and the seed alone fixes every input. *)
let mix seed coords =
  List.fold_left
    (fun h k -> (h lxor k) * 0x100000001b3 land max_int)
    (0x0bf29ce484222325 lxor seed)
    coords

let rng_for seed coords = Rng.create (mix seed coords)

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (Python's "inclusive"
   method); 0 on an empty sample so an unused layer reports 0. *)
let quantile xs q =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (mean (List.map log xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let ns s = s *. 1e9

let ms s = s *. 1e3

(* [f ()] and its wall duration in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Run [f] [k] times and keep the last result with the median duration:
   the set-up time a later change is judged on.  Each repetition starts
   from a collected heap, so it does not pay for the garbage of the one
   before. *)
let repeated_setup k f =
  let rec go i acc =
    Gc.full_major ();
    let r, dt = timed f in
    if i = k then (r, median (dt :: acc)) else go (i + 1) (dt :: acc)
  in
  go 1 []

(* ------------------------------------------------------------------ *)
(* Failure accounting.                                                 *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally = { attempted = 0; failed = 0; notes = [] }

let note msg =
  if List.length tally.notes < 20 then tally.notes <- msg :: tally.notes

(* Count one operation; [ok = false] makes it a failed one. *)
let record_op ~ok what =
  tally.attempted <- tally.attempted + 1;
  if not ok then begin
    tally.failed <- tally.failed + 1;
    note what
  end

(* ------------------------------------------------------------------ *)
(* Output checks.                                                      *)

(* A permutation of the query's relations in which every relation after
   the first joins an earlier one — read straight off the join-graph
   adjacency, independently of [Plan.is_valid]. *)
let prefix_connected query plan =
  let n = Query.n_relations query in
  let adj = Join_graph.adjacency (Query.graph query) in
  let placed = Array.make n false in
  Array.length plan = n
  && (let ok = ref true in
      Array.iteri
        (fun i r ->
          if r < 0 || r >= n || placed.(r) then ok := false
          else begin
            if i > 0 && not (Array.exists (fun v -> placed.(v)) adj.(r)) then
              ok := false;
            placed.(r) <- true
          end)
        plan;
      !ok)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The checks every returned plan must pass: a connected permutation, a cost
   that a fresh [Plan_cost.eval] reproduces bit for bit, and no more ticks
   than the budget plus [allowance] (one charge). *)
let plan_ok ~query ~budget ~allowance ~plan ~cost ~ticks_used =
  if not (prefix_connected query plan) then Error "plan is not a connected permutation"
  else if not (same_float cost (Plan_cost.eval model query plan).Plan_cost.total) then
    Error "plan cost differs from a fresh Plan_cost.eval"
  else if ticks_used > budget + allowance then
    Error (Printf.sprintf "ticks %d exceed budget %d + %d" ticks_used budget allowance)
  else Ok ()

let cost_ratio ~query ~cost = cost /. Plan_cost.lower_bound model query

(* ------------------------------------------------------------------ *)
(* Obs views.                                                          *)

let counter (s : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name s.Obs.counters)

let hist (s : Obs.snapshot) name =
  Option.value ~default:Ljqo_obs.Hist.empty (List.assoc_opt name s.Obs.hists)

(* Counters on, spans off: the instrumentation the check pass runs under in
   both trace modes, so its deterministic cells compare across them. *)
let with_counters f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
      let r = f () in
      (r, Obs.snapshot ()))

let span_ring = 1 lsl 18

let set_tracing on =
  Obs.set_enabled on;
  Obs.set_spans ~ring_capacity:span_ring on

(* [Obs.span] only when this pass is traced. *)
let span traced name f = if traced then Obs.span name f else f ()

(* ------------------------------------------------------------------ *)
(* Span accounting.                                                    *)

let layers =
  [ "core"; "cost"; "service"; "exec"; "feedback"; "querygen"; "loadgen"; "bench" ]

(* The benchmark names its spans "<layer>.<call>"; the library's own spans
   are attributed to the module that opens them. *)
let layer_of_span name =
  match name with
  | "portfolio_round" -> "core"
  | "server.request" -> "service"
  | _ -> (
    match String.index_opt name '.' with
    | Some i when List.mem (String.sub name 0 i) layers -> String.sub name 0 i
    | _ -> "bench")

(* Self time per layer over the captured spans, in nanoseconds. *)
let self_ns_by_layer spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.span_rec) ->
      let l = layer_of_span s.span_name in
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (prev + s.self_ns))
    spans;
  fun l -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt tbl l))

(* Each layer's self time as a share of the traced wall time, and the share
   of that wall time the main domain's spans cover at all.  Spans on other
   domains (the server's worker) count towards their layer's share but not
   towards the coverage. *)
let accounting ~spans ~traced_wall =
  let self = self_ns_by_layer spans in
  let main = (Domain.self () :> int) in
  let covered =
    List.fold_left
      (fun a (s : Obs.span_rec) -> if s.dom = main then a + s.self_ns else a)
      0 spans
  in
  List.map (fun l -> (l ^ ".self_frac", ratio (self l) (ns traced_wall))) layers
  @ [ ("obs.span_coverage", ratio (float_of_int covered) (ns traced_wall)) ]

type gc_delta = { minor_words : float; minor_gcs : int; major_gcs : int }

let gc_zero = { minor_words = 0.0; minor_gcs = 0; major_gcs = 0 }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
  }

let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = g1.minor_words -. g0.minor_words;
      minor_gcs = g1.minor_collections - g0.minor_collections;
      major_gcs = g1.major_collections - g0.major_collections;
    } )

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Collections per thousand operations of the traced phase. *)
let gc_metrics ~ops g =
  let per_kop x = 1000.0 *. float_of_int x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_collections", per_kop g.minor_gcs);
    ("gc.major_collections", per_kop g.major_gcs);
    ("gc.top_heap_mb", top_heap_mb ());
  ]

let span_durations_ms spans name =
  List.filter_map
    (fun (s : Obs.span_rec) ->
      if s.span_name = name then Some (float_of_int s.dur_ns /. 1e6) else None)
    spans

let out_dir = ".bench_out"

let rec mkdir_p d =
  if d <> "" && d <> "." && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_atomically path contents =
  mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

(* The captured spans as Obs "span" trace events — the JSONL format
   [ljqo obs summary] and [ljqo obs export-flame] read.  [ts] is the span's
   end, in seconds since process start. *)
let write_trace ctx spans =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (s : Obs.span_rec) ->
      let module J = Ljqo_obs.Jsonv in
      Buffer.add_string b "{\"ev\":\"span\",\"ts\":";
      J.write_float b (s.t_start +. (float_of_int s.dur_ns /. 1e9));
      Printf.bprintf b ",\"dom\":%d,\"name\":" s.dom;
      J.write_string b s.span_name;
      Buffer.add_string b ",\"path\":";
      J.write_string b s.path;
      Printf.bprintf b ",\"dur_ns\":%d,\"self_ns\":%d,\"depth\":%d" s.dur_ns s.self_ns
        s.depth;
      List.iter
        (fun (k, v) ->
          Buffer.add_string b ",";
          J.write_string b k;
          Buffer.add_string b ":";
          match v with
          | Obs.I i -> Buffer.add_string b (string_of_int i)
          | Obs.F f -> J.write_float b f
          | Obs.S s -> J.write_string b s)
        s.span_fields;
      Buffer.add_string b "}\n")
    spans;
  let path = Printf.sprintf "%s/trace-%s-%d.jsonl" out_dir ctx.workload ctx.seed in
  write_atomically path (Buffer.contents b);
  path

(* ------------------------------------------------------------------ *)
(* Deterministic cells.                                                *)

let float_cell f = Printf.sprintf "%h" f

let digest_of parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* Compare this run's deterministic cells with the first run of the same
   workload and seed in this checkout (either trace mode), or record them.
   Returns the keys that disagree. *)
let reconcile_cells ctx cells =
  let path = Printf.sprintf "%s/cells-%s-%d.txt" out_dir ctx.workload ctx.seed in
  let render = String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") cells) in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let prior = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let parse s =
      List.filter_map
        (fun line ->
          match String.index_opt line ' ' with
          | Some i -> Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
          | None -> None)
        (String.split_on_char '\n' s)
    in
    let before = parse prior in
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k before with
        | Some v' when v' = v -> None
        | _ -> Some k)
      cells
  end
  else begin
    write_atomically path render;
    []
  end

(* ------------------------------------------------------------------ *)
(* Results.                                                            *)

type report = {
  e2e : (string * float) list;
  per_layer : (string * float) list;
  cells : (string * string) list;
}

(* Each operation's fastest time over the passes, in operation order.
   Interference from the rest of the machine only ever slows an operation
   down, so the fastest of many repetitions is the steadiest estimate of
   what the code costs. *)
let fastest_per_op passes =
  match passes with
  | [] -> [||]
  | first :: _ ->
    let best = Array.of_list first in
    List.iter (List.iteri (fun i w -> best.(i) <- Float.min best.(i) w)) passes;
    best

(* Timed passes over a fixed operation list: at least [min_passes], then
   more while the measuring time lasts.  Only whole passes count, so every
   run measures the same mix of work. *)
let run_passes ~seconds ~min_passes pass =
  let deadline = now () +. seconds in
  let rec go i acc =
    if i >= min_passes && now () >= deadline then List.rev acc
    else go (i + 1) (pass i :: acc)
  in
  go 0 []

(* The timed phase of a closed-loop workload: (untraced passes, traced
   passes).  When traced, untraced and traced passes alternate over the same
   work, so their difference is the tracing overhead. *)
let timed_passes (ctx : ctx) pass_of =
  if not ctx.traced then
    (run_passes ~seconds:ctx.seconds ~min_passes:3 (pass_of ~traced:false), [])
  else begin
    Obs.reset ();
    let pairs =
      run_passes ~seconds:ctx.seconds ~min_passes:2 (fun i ->
          let u = pass_of ~traced:false i in
          set_tracing true;
          let t = Fun.protect ~finally:(fun () -> set_tracing false) (fun () -> pass_of ~traced:true i) in
          (u, t))
    in
    (List.map fst pairs, List.map snd pairs)
  end

(* Search-layer metrics read from Obs: phase wall time in the traced part
   ([traced], divided by [per] units of work) and phase ticks in the check
   pass ([check]), plus the move outcome shares. *)
let search_metrics ~(traced : Obs.snapshot) ~(check : Obs.snapshot) ~per =
  let phases =
    List.concat_map
      (fun name ->
        let wall =
          match List.assoc_opt name traced.phases with
          | Some p -> float_of_int p.Obs.wall_ns /. 1e6 /. per
          | None -> 0.0
        and ticks =
          match List.assoc_opt name check.phases with
          | Some p -> float_of_int p.Obs.ticks
          | None -> 0.0
        in
        [ (Printf.sprintf "core.phase.%s_ms" name, wall); (Printf.sprintf "core.phase.%s_ticks" name, ticks) ])
      [ "ii"; "sa"; "heuristic"; "local" ]
  in
  let moves f =
    let proposed, x =
      List.fold_left
        (fun (p, x) (_, (m : Obs.move_stat)) -> (p + m.proposed, x + f m))
        (0, 0) traced.moves
    in
    ratio (float_of_int x) (float_of_int proposed)
  in
  phases
  @ [
      ("core.moves.accept_frac", moves (fun m -> m.accepted));
      ("core.moves.invalid_frac", moves (fun m -> m.invalid));
      ("core.neighbors_evaluated", float_of_int (counter check "search.neighbors_evaluated"));
      ("core.budget_charges", float_of_int (counter check "budget.charges"));
      ("cost.recost_steps", float_of_int (counter check "recost_steps"));
    ]

(* Trace post-processing: turn the JSONL event stream written by {!Obs} into
   things other tools can open — Chrome/Perfetto trace-event JSON and
   folded-stack flamegraph text — plus a terminal summary.  Everything works
   from parsed events, so the exporters compose with both on-disk traces and
   tests that build event lists by hand. *)

type event = {
  ev : string;
  ts : float;  (* seconds since the sink opened *)
  dom : int;
  fields : (string * Jsonv.t) list;  (* payload minus ev/ts/dom *)
}

let event_of_line line =
  match Jsonv.parse line with
  | Error msg -> Error msg
  | Ok (Jsonv.Obj members) -> (
    let ev =
      match List.assoc_opt "ev" members with
      | Some (Jsonv.Str s) -> Some s
      | _ -> None
    in
    let ts =
      match List.assoc_opt "ts" members with
      | Some (Jsonv.Num f) -> f
      | _ -> 0.0
    in
    let dom =
      match List.assoc_opt "dom" members with
      | Some (Jsonv.Num f) -> int_of_float f
      | _ -> 0
    in
    match ev with
    | None -> Error "object lacks an \"ev\" string field"
    | Some ev ->
      Ok
        {
          ev;
          ts;
          dom;
          fields =
            List.filter
              (fun (k, _) -> k <> "ev" && k <> "ts" && k <> "dom")
              members;
        })
  | Ok _ -> Error "line is not a JSON object"

(* Whole-trace parse; [Error (lineno, msg)] pinpoints the first bad line,
   mirroring the validator's policy. *)
let events_of_string content =
  let lines = String.split_on_char '\n' content in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) acc rest
      else (
        match event_of_line line with
        | Ok e -> go (lineno + 1) (e :: acc) rest
        | Error msg -> Error (lineno, msg))
  in
  go 1 [] lines

let events_of_file path =
  Result.bind (Sealed.read path) (fun content ->
      Result.map_error
        (fun (lineno, msg) -> Printf.sprintf "%s:%d: %s" path lineno msg)
        (events_of_string content))

let num fields k =
  match List.assoc_opt k fields with Some (Jsonv.Num f) -> Some f | _ -> None

let str fields k =
  match List.assoc_opt k fields with Some (Jsonv.Str s) -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (load in Perfetto / chrome://tracing).       *)

let write_args b fields =
  Buffer.add_string b "\"args\":";
  Jsonv.write b (Jsonv.Obj fields)

let write_common b ~name ~cat ~ph ~ts_us ~dom =
  Buffer.add_string b "{\"name\":";
  Jsonv.write_string b name;
  Buffer.add_string b (Printf.sprintf ",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":" cat ph);
  Jsonv.write_float b ts_us;
  Buffer.add_string b (Printf.sprintf ",\"pid\":0,\"tid\":%d," dom)

(* Spans are emitted at completion carrying their duration, so a complete
   ("X") event starts at [ts - dur].  Phase begin/end become "B"/"E" pairs;
   everything else is an instant. *)
let chrome events =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let emit line =
    if not !first then Buffer.add_string b ",\n";
    first := false;
    Buffer.add_string b line
  in
  List.iter
    (fun e ->
      let ts_us = e.ts *. 1e6 in
      let line = Buffer.create 128 in
      (match e.ev with
      | "span" ->
        let dur_ns = Option.value ~default:0.0 (num e.fields "dur_ns") in
        let dur_us = dur_ns /. 1e3 in
        let name = Option.value ~default:"?" (str e.fields "name") in
        write_common line ~name ~cat:"span" ~ph:"X" ~ts_us:(ts_us -. dur_us)
          ~dom:e.dom;
        Buffer.add_string line "\"dur\":";
        Jsonv.write_float line dur_us;
        Buffer.add_char line ',';
        write_args line (List.remove_assoc "name" e.fields);
        Buffer.add_char line '}'
      | "phase" ->
        let name = Option.value ~default:"?" (str e.fields "phase") in
        let ph =
          match str e.fields "dir" with Some "begin" -> "B" | _ -> "E"
        in
        write_common line ~name ~cat:"phase" ~ph ~ts_us ~dom:e.dom;
        write_args line [];
        Buffer.add_char line '}'
      | _ ->
        write_common line ~name:e.ev ~cat:"event" ~ph:"i" ~ts_us ~dom:e.dom;
        Buffer.add_string line "\"s\":\"t\",";
        write_args line e.fields;
        Buffer.add_char line '}');
      emit (Buffer.contents line))
    events;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph.pl / speedscope / inferno input).          *)

(* One line per distinct stack, [dom<N>;root;...;leaf self_ns], summed over
   occurrences and sorted, so output is deterministic for a given trace. *)
let flame events =
  let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.ev = "span" then
        match (str e.fields "path", num e.fields "self_ns") with
        | Some path, Some self_ns ->
          let key = Printf.sprintf "dom%d;%s" e.dom path in
          let cell =
            match Hashtbl.find_opt tbl key with
            | Some r -> r
            | None ->
              let r = ref 0 in
              Hashtbl.add tbl key r;
              r
          in
          cell := !cell + int_of_float self_ns
        | _ -> ())
    events;
  let folded = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tbl [] in
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s %d\n" k v))
    (List.sort compare folded);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Terminal summary.                                                    *)

let summary events =
  let b = Buffer.create 1024 in
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
  (* per span path: calls, total ns, self ns *)
  let spans : (string, (int * int * int) ref) Hashtbl.t = Hashtbl.create 64 in
  (* serving-layer tail latency: every event carrying a numeric latency_ns
     (the server's "service.request" events) feeds one histogram. *)
  let latency = ref Hist.empty in
  let shed_by_reason : (string, int ref) Hashtbl.t = Hashtbl.create 4 in
  let drained = ref 0 in
  (* Executor feedback: "exec.plan" events carry the hash-probe comparison
     count for one executed plan (the trace-side view of the
     exec.probe_comparisons counter). *)
  let probe_total = ref 0 in
  let probe_plans = ref 0 in
  List.iter
    (fun e ->
      (match Hashtbl.find_opt counts e.ev with
      | Some r -> incr r
      | None -> Hashtbl.add counts e.ev (ref 1));
      (match num e.fields "latency_ns" with
      | Some ns -> latency := Hist.record_f !latency ns
      | None -> ());
      (match num e.fields "probe_comparisons" with
      | Some p ->
        probe_total := !probe_total + int_of_float p;
        incr probe_plans
      | None -> ());
      if e.ev = "service.shed" then begin
        let reason = Option.value ~default:"?" (str e.fields "reason") in
        match Hashtbl.find_opt shed_by_reason reason with
        | Some r -> incr r
        | None -> Hashtbl.add shed_by_reason reason (ref 1)
      end;
      if e.ev = "service.request" && num e.fields "drained" = Some 1.0 then
        incr drained;
      if e.ev = "span" then
        match (str e.fields "path", num e.fields "dur_ns", num e.fields "self_ns") with
        | Some path, Some dur, Some self ->
          let cell =
            match Hashtbl.find_opt spans path with
            | Some r -> r
            | None ->
              let r = ref (0, 0, 0) in
              Hashtbl.add spans path r;
              r
          in
          let calls, t, s = !cell in
          cell := (calls + 1, t + int_of_float dur, s + int_of_float self)
        | _ -> ())
    events;
  Buffer.add_string b "events:\n";
  List.iter
    (fun (name, n) -> Buffer.add_string b (Printf.sprintf "  %-24s %d\n" name n))
    (List.sort compare (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) counts []));
  let span_rows = Hashtbl.fold (fun k v acc -> (k, !v) :: acc) spans [] in
  if span_rows <> [] then begin
    Buffer.add_string b "spans (by total self time):\n";
    Buffer.add_string b
      (Printf.sprintf "  %-40s %8s %12s %12s\n" "path" "calls" "total_ms"
         "self_ms");
    List.iter
      (fun (path, (calls, total, self)) ->
        Buffer.add_string b
          (Printf.sprintf "  %-40s %8d %12.3f %12.3f\n" path calls
             (float_of_int total /. 1e6)
             (float_of_int self /. 1e6)))
      (List.sort
         (fun (p1, (_, _, s1)) (p2, (_, _, s2)) -> compare (s2, p1) (s1, p2))
         span_rows)
  end;
  if not (Hist.is_empty !latency) then begin
    let h = !latency in
    let ms q = float_of_int (Hist.quantile h q) /. 1e6 in
    Buffer.add_string b "tail latency (service.request):\n";
    Buffer.add_string b
      (Printf.sprintf
         "  requests %d  p50 %.3fms  p99 %.3fms  p999 %.3fms  max %.3fms\n"
         (Hist.count h) (ms 0.5) (ms 0.99) (ms 0.999)
         (float_of_int (Hist.max_value h) /. 1e6))
  end;
  let shed_rows =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> (k, !v) :: acc) shed_by_reason [])
  in
  if shed_rows <> [] || !drained > 0 then begin
    Buffer.add_string b "load shedding / drain:\n";
    List.iter
      (fun (reason, n) ->
        Buffer.add_string b (Printf.sprintf "  shed[%s] %d\n" reason n))
      shed_rows;
    if !drained > 0 then
      Buffer.add_string b (Printf.sprintf "  drained %d\n" !drained)
  end;
  if !probe_plans > 0 then
    Buffer.add_string b
      (Printf.sprintf "executor:\n  probe_comparisons %d over %d plan(s)\n"
         !probe_total !probe_plans);
  Buffer.contents b

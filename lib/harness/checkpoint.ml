(* Crash-safe persistence of completed per-query experiment results.

   One experiment writes one line-oriented text file: a header binding the
   file to a configuration fingerprint, then one sealed record per completed
   query (the line format is in checkpoint.mli, the seal and tokens in
   Ljqo_obs.Sealed).  Records are appended and flushed as each query
   finishes, so the file is valid after a kill at any instant (a torn final
   line is ignored on load).  A resumed record is trusted bit for bit, so
   loading skips every line the writer could not have produced. *)

module Sealed = Ljqo_obs.Sealed

let log_src = Logs.Src.create "ljqo.checkpoint" ~doc:"experiment checkpointing"

module Log = (val Logs.src_log log_src)

type request = { dir : string; resume : bool }

type record = { timeouts : int; out : float array array }

type t = {
  path : string;
  mutable oc : out_channel option;
  mutex : Mutex.t;
  loaded : (int, record) Hashtbl.t;
}

let header_magic = "# ljqo-checkpoint v2"

(* "R <index> <timeouts> <rows> <cols> <float>*", sealed; None on any
   malformation, torn lines included. *)
let parse_record line =
  match Sealed.unseal (String.trim line) with
  | Some ("R" :: index :: timeouts :: rows :: cols :: cells) -> (
    match
      Sealed.
        ( int_of_token index,
          int_of_token timeouts,
          int_of_token rows,
          int_of_token cols,
          floats cells )
    with
    | Some index, Some timeouts, Some rows, Some cols, Some floats
      when List.length floats = rows * cols ->
      let flat = Array.of_list floats in
      let out = Array.init rows (fun r -> Array.sub flat (r * cols) cols) in
      Some (index, { timeouts; out })
    | _ -> None)
  | _ -> None

let load_into table ~path ~fingerprint =
  match Result.map (String.split_on_char '\n') (Sealed.read path) with
  | Ok (header :: lines) when header = header_magic ^ " " ^ fingerprint ->
    List.iter
      (fun line ->
        match parse_record line with
        | Some (index, r) ->
          Ljqo_obs.Obs.bump Ljqo_obs.Obs.Ckpt_records_loaded;
          Hashtbl.replace table index r
        | None ->
          if String.trim line <> "" then begin
            Ljqo_obs.Obs.bump Ljqo_obs.Obs.Ckpt_lines_rejected;
            Log.warn (fun m ->
                m "%s: ignoring malformed checkpoint line %S" path line)
          end)
      lines;
    true
  | _ -> false

(* Stores open for writing, flushed by the SIGINT handler / at_exit hook. *)
let open_stores : t list ref = ref []

let flush_all () =
  List.iter
    (fun t ->
      Mutex.lock t.mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.mutex)
        (fun () -> try Option.iter flush t.oc with Sys_error _ -> ()))
    !open_stores

let handlers_installed = ref false

let install_flush_handlers () =
  if not !handlers_installed then begin
    handlers_installed := true;
    at_exit flush_all;
    match Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> flush_all (); exit 130)) with
    | _ -> ()
    | exception Sys_error _ | exception Invalid_argument _ -> ()
  end

let record_line index { timeouts; out } =
  let rows = Array.length out in
  let cols = if rows = 0 then 0 else Array.length out.(0) in
  Sealed.seal
    (("R" :: List.map Sealed.int [ index; timeouts; rows; cols ])
    @ List.concat_map
        (fun row -> List.map Sealed.float (Array.to_list row))
        (Array.to_list out))

exception Unwritable of string

let open_store ~path ~fingerprint ~resume () =
  (* Proven writable before anything is loaded or truncated. *)
  (match Ljqo_obs.Obs.probe_writable ~dir:false path with
  | Ok () -> ()
  | Error e -> raise (Unwritable e));
  let loaded = Hashtbl.create 64 in
  let usable =
    resume && Sys.file_exists path && load_into loaded ~path ~fingerprint
  in
  if resume && Sys.file_exists path && not usable then
    Log.warn (fun m ->
        m "%s: checkpoint is unreadable or from another configuration; starting fresh"
          path);
  (* Always rewrite rather than append: a kill can leave a torn final line
     with no trailing newline, and appending after it would weld the next
     record onto the fragment, losing both. *)
  let oc = open_out path in
  output_string oc (header_magic ^ " " ^ fingerprint ^ "\n");
  if usable then begin
    let indices = Hashtbl.fold (fun k _ acc -> k :: acc) loaded [] in
    List.iter
      (fun i -> output_string oc (record_line i (Hashtbl.find loaded i)))
      (List.sort compare indices)
  end;
  flush oc;
  if usable then
    Log.info (fun m ->
        m "%s: resuming, %d completed queries loaded" path (Hashtbl.length loaded));
  let t = { path; oc = Some oc; mutex = Mutex.create (); loaded } in
  install_flush_handlers ();
  open_stores := t :: !open_stores;
  t

let completed t index = Hashtbl.find_opt t.loaded index

let record t ~index r =
  let line = record_line index r in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        output_string oc line;
        flush oc)

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Option.iter close_out_noerr t.oc;
      t.oc <- None);
  open_stores := List.filter (fun s -> s != t) !open_stores

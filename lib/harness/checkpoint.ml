(* Crash-safe persistence of completed per-query experiment results.

   One experiment writes one line-oriented text file: a header binding the
   file to a configuration fingerprint, then one record per completed query.
   Records are appended and flushed as each query finishes, so the file is
   valid after a kill at any instant (a torn final line is ignored on load).
   Floats are stored as IEEE-754 bit patterns in hex, so a resumed
   experiment reproduces the uninterrupted outcome bit for bit.

   Corruption discipline: a resumed record is trusted bit for bit, so
   loading must never accept a line the writer could not have produced.
   Tokens are parsed canonically (plain decimal / bare lowercase hex — no
   [int_of_string] leniency like underscores or 0x/0o/0b prefixes, which
   would let a garbled line parse into a plausible bogus record), and every
   record line carries an MD5 checksum of its payload, so even a mutation
   that maps one valid digit to another is rejected rather than silently
   poisoning the resume. *)

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

let float_to_hex v = Printf.sprintf "%Lx" (Int64.bits_of_float v)

(* Canonical nonnegative decimal, exactly as [%d] prints it: digits only, no
   sign, no leading zero (except "0" itself), no [int_of_string] extras
   (underscores, 0x/0o/0b prefixes). *)
let canonical_nat s =
  let n = String.length s in
  if n = 0 || n > 18 then None
  else if n > 1 && s.[0] = '0' then None
  else begin
    let ok = ref true in
    String.iter (fun c -> if c < '0' || c > '9' then ok := false) s;
    if !ok then int_of_string_opt s else None
  end

(* Canonical bare hex, exactly as [%Lx] prints it: 1-16 lowercase hex
   digits, no prefix, no leading zero (except "0" itself). *)
let float_of_hex s =
  let n = String.length s in
  if n = 0 || n > 16 then None
  else if n > 1 && s.[0] = '0' then None
  else begin
    let ok = ref true in
    String.iter
      (fun c -> if not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) then ok := false)
      s;
    if !ok then
      match Int64.of_string_opt ("0x" ^ s) with
      | Some bits -> Some (Int64.float_of_bits bits)
      | None -> None
    else None
  end

let checksum payload = Digest.to_hex (Digest.string payload)

(* "R <index> <timeouts> <rows> <cols> <hex>* <md5>" — returns None on any
   malformation: torn writes show up as short lines or a checksum mismatch,
   and byte-level corruption of an otherwise well-formed line is caught by
   the checksum even when every token still parses. *)
let parse_record line =
  let line = String.trim line in
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
    let payload = String.sub line 0 i in
    let digest = String.sub line (i + 1) (String.length line - i - 1) in
    if String.length digest <> 32 || not (String.equal digest (checksum payload))
    then None
    else (
      match String.split_on_char ' ' payload with
      | "R" :: index :: timeouts :: rows :: cols :: cells -> (
        match
          ( canonical_nat index,
            canonical_nat timeouts,
            canonical_nat rows,
            canonical_nat cols )
        with
        | Some index, Some timeouts, Some rows, Some cols
          when rows >= 0 && cols >= 0 && List.length cells = rows * cols -> (
          match
            List.map (fun c -> Option.to_list (float_of_hex c)) cells
            |> List.concat
          with
          | floats when List.length floats = rows * cols ->
            let flat = Array.of_list floats in
            let out = Array.init rows (fun r -> Array.sub flat (r * cols) cols) in
            Some (index, { timeouts; out })
          | _ -> None)
        | _ -> None)
      | _ -> None)

let load_into table ~path ~fingerprint =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match input_line ic with
      | exception End_of_file -> false
      | header ->
        if header <> header_magic ^ " " ^ fingerprint then false
        else begin
          let rec go () =
            match input_line ic with
            | exception End_of_file -> ()
            | line ->
              (match parse_record line with
              | Some (index, r) ->
                Ljqo_obs.Obs.bump Ljqo_obs.Obs.Ckpt_records_loaded;
                Hashtbl.replace table index r
              | None ->
                if String.trim line <> "" then begin
                  Ljqo_obs.Obs.bump Ljqo_obs.Obs.Ckpt_lines_rejected;
                  Log.warn (fun m ->
                      m "%s: ignoring malformed checkpoint line %S" path line)
                end);
              go ()
          in
          go ();
          true
        end)

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
  let buf = Buffer.create 256 in
  let rows = Array.length out in
  let cols = if rows = 0 then 0 else Array.length out.(0) in
  Buffer.add_string buf (Printf.sprintf "R %d %d %d %d" index timeouts rows cols);
  Array.iter
    (Array.iter (fun v ->
         Buffer.add_char buf ' ';
         Buffer.add_string buf (float_to_hex v)))
    out;
  let payload = Buffer.contents buf in
  payload ^ " " ^ checksum payload ^ "\n"

let open_store ~path ~fingerprint ~resume () =
  Ljqo_obs.Obs.mkdir_p (Filename.dirname path);
  let loaded = Hashtbl.create 64 in
  let usable =
    resume && Sys.file_exists path && load_into loaded ~path ~fingerprint
  in
  if resume && Sys.file_exists path && not usable then
    Log.warn (fun m ->
        m "%s: checkpoint does not match this experiment's configuration; starting fresh"
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

let path t = t.path

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

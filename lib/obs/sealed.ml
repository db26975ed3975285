(* The sealed-file codec; sealed.mli specifies the format. *)

let int = string_of_int

let float v = Printf.sprintf "%Lx" (Int64.bits_of_float v)

(* Non-empty, at most [max_len] digits, no leading zero except "0" itself. *)
let canonical ~max_len digit s =
  let n = String.length s in
  n > 0 && n <= max_len && (n = 1 || s.[0] <> '0') && String.for_all digit s

let int_of_token s =
  if canonical ~max_len:18 (fun c -> c >= '0' && c <= '9') s then
    int_of_string_opt s
  else None

let float_of_token s =
  let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  if canonical ~max_len:16 hex s then
    Option.map Int64.float_of_bits (Int64.of_string_opt ("0x" ^ s))
  else None

let floats toks =
  let vals = List.filter_map float_of_token toks in
  if List.compare_lengths vals toks = 0 then Some vals else None

let digest payload = Digest.to_hex (Digest.string payload)

let seal toks =
  let payload = String.concat " " toks in
  payload ^ " " ^ digest payload ^ "\n"

let unseal line =
  match String.rindex_opt line ' ' with
  | Some i when String.length line - i - 1 = 32 ->
    let payload = String.sub line 0 i in
    if String.equal (String.sub line (i + 1) 32) (digest payload) then
      Some (String.split_on_char ' ' payload)
    else None
  | _ -> None

let to_string ~magic lines =
  String.concat "" ((magic ^ "\n") :: List.map seal lines)

let error ~line fmt =
  Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt

let of_string ~magic s =
  let len = String.length s in
  if len = 0 || s.[len - 1] <> '\n' then Error "missing trailing newline"
  else
    match String.split_on_char '\n' (String.sub s 0 (len - 1)) with
    | first :: rest when String.equal first magic ->
      let rec go line acc = function
        | [] -> Ok (List.rev acc)
        | l :: tl -> (
          match unseal l with
          | Some toks -> go (line + 1) (toks :: acc) tl
          | None -> error ~line "bad seal")
      in
      go 2 [] rest
    | _ -> error ~line:1 "bad magic or truncated file"

let entries ~first ~noun decode lines =
  let rec go line acc = function
    | [] -> Ok (List.rev acc)
    | toks :: tl -> (
      match decode toks with
      | Some (name, _) when List.mem_assoc name acc ->
        error ~line "duplicate %s %s" noun name
      | Some e -> go (line + 1) (e :: acc) tl
      | None -> error ~line "bad %s line" noun)
  in
  go first [] lines

(* An open's error names the path; a read's does not. *)
let read path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try Ok (In_channel.input_all ic)
        with Sys_error e -> Error (path ^ ": " ^ e))

let write ~path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let load decode ~path =
  Result.bind (read path) (fun s ->
      Result.map_error (fun e -> path ^ ": " ^ e) (decode s))

let manifest_path dir = Filename.concat dir "MANIFEST"

let save (w : Workload.t) ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "# ljqo workload: %s\n" w.spec.Benchmark.name);
  Array.iteri
    (fun i (e : Workload.entry) ->
      let file = Printf.sprintf "q%04d.qdl" (i + 1) in
      Ljqo_qdl.Printer.save e.query (Filename.concat dir file);
      Buffer.add_string buf (Printf.sprintf "%s %d %d\n" file e.n_joins e.seed))
    w.entries;
  let oc = open_out (manifest_path dir) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf))

type loaded_entry = {
  file : string;
  n_joins : int;
  seed : int;
  query : Ljqo_catalog.Query.t;
}

type error = { file : string; line : int; reason : string }

let error_to_string { file; line; reason } =
  if line > 0 then Printf.sprintf "%s:%d: %s" file line reason
  else Printf.sprintf "%s: %s" file reason

(* [Sealed.read]'s error is "PATH: reason"; the record keeps PATH in [file]
   and only the reason in [reason]. *)
let read_error path e =
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix e then
      String.sub e (String.length prefix) (String.length e - String.length prefix)
    else e
  in
  { file = path; line = 0; reason }

let load_result ~dir =
  let path = manifest_path dir in
  let fail ~line reason = Result.error { file = path; line; reason } in
  if not (Sys.file_exists path) then fail ~line:0 "no manifest file"
  else
    match Ljqo_obs.Sealed.read path with
    | Error e -> Result.error (read_error path e)
    | Ok contents ->
      let lines = String.split_on_char '\n' contents in
      let parse_line lineno line =
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then Ok None
        else
          match String.split_on_char ' ' trimmed with
          | [ file; n; seed ] -> (
            match (int_of_string_opt n, int_of_string_opt seed) with
            | Some n_joins, Some seed -> (
              let qdl = Filename.concat dir file in
              match Ljqo_obs.Sealed.read qdl with
              | Error e -> Error (read_error qdl e)
              | Ok text -> (
                match Ljqo_qdl.Parser.parse text with
                | query -> Ok (Some { file; n_joins; seed; query })
                | exception Ljqo_qdl.Parser.Error { line; message } ->
                  Error { file = qdl; line; reason = message }))
            | _ ->
              Error
                {
                  file = path;
                  line = lineno;
                  reason =
                    Printf.sprintf "malformed manifest line %S (non-numeric field)"
                      trimmed;
                })
          | _ ->
            Error
              {
                file = path;
                line = lineno;
                reason =
                  Printf.sprintf
                    "malformed manifest line %S (want: FILE N_JOINS SEED)" trimmed;
              }
      in
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
          match parse_line lineno line with
          | Ok None -> go (lineno + 1) acc rest
          | Ok (Some entry) -> go (lineno + 1) (entry :: acc) rest
          | Error e -> Result.error e)
      in
      go 1 [] lines

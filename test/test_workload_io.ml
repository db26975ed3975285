open Ljqo_querygen

let with_temp_dir f =
  let dir = Filename.temp_file "ljqo_wl" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let load ~dir =
  match Workload_io.load_result ~dir with
  | Ok entries -> entries
  | Error e -> Alcotest.fail (Workload_io.error_to_string e)

let test_roundtrip () =
  with_temp_dir (fun dir ->
      let w = Workload.make ~ns:[ 5; 8 ] ~per_n:2 ~seed:3 Benchmark.default in
      Workload_io.save w ~dir;
      let loaded = load ~dir in
      Alcotest.(check int) "entry count" (Workload.size w) (List.length loaded);
      List.iteri
        (fun i (e : Workload_io.loaded_entry) ->
          let orig = w.entries.(i) in
          Alcotest.(check int) "n_joins" orig.n_joins e.n_joins;
          Alcotest.(check int) "seed" orig.seed e.seed;
          Alcotest.(check int) "relation count"
            (Ljqo_catalog.Query.n_relations orig.query)
            (Ljqo_catalog.Query.n_relations e.query);
          Alcotest.(check int) "join count"
            (Ljqo_catalog.Query.n_joins orig.query)
            (Ljqo_catalog.Query.n_joins e.query);
          Helpers.check_approx "total tuples preserved"
            (Ljqo_catalog.Query.total_base_tuples orig.query)
            (Ljqo_catalog.Query.total_base_tuples e.query))
        loaded)

let test_manifest_format () =
  with_temp_dir (fun dir ->
      let w = Workload.make ~ns:[ 5 ] ~per_n:1 ~seed:3 Benchmark.default in
      Workload_io.save w ~dir;
      let ic = open_in (Workload_io.manifest_path dir) in
      let first = input_line ic in
      let second = input_line ic in
      close_in ic;
      Alcotest.(check bool) "comment header" true (String.length first > 0 && first.[0] = '#');
      Alcotest.(check bool) "query line" true
        (String.length second > 9 && String.sub second 0 5 = "q0001"))

let test_missing_manifest () =
  with_temp_dir (fun dir ->
      match Workload_io.load_result ~dir with
      | Error { line = 0; _ } -> ()
      | Error e ->
        Alcotest.failf "unexpected error location: %s" (Workload_io.error_to_string e)
      | Ok _ -> Alcotest.fail "missing manifest accepted")

let test_malformed_manifest () =
  with_temp_dir (fun dir ->
      let oc = open_out (Workload_io.manifest_path dir) in
      output_string oc "# header\nnot a manifest line\n";
      close_out oc;
      match Workload_io.load_result ~dir with
      | Error { file; line = 2; reason } ->
        Alcotest.(check string) "manifest blamed" (Workload_io.manifest_path dir) file;
        Alcotest.(check bool) "reason mentions the line" true
          (String.length reason > 0)
      | Error e ->
        Alcotest.failf "wrong error location: %s" (Workload_io.error_to_string e)
      | Ok _ -> Alcotest.fail "malformed manifest accepted")

let test_truncated_manifest_line () =
  with_temp_dir (fun dir ->
      let oc = open_out (Workload_io.manifest_path dir) in
      (* A kill mid-write leaves a torn final line. *)
      output_string oc "q0001.qdl 10\n";
      close_out oc;
      match Workload_io.load_result ~dir with
      | Error { line = 1; _ } -> ()
      | Error e ->
        Alcotest.failf "wrong error location: %s" (Workload_io.error_to_string e)
      | Ok _ -> Alcotest.fail "truncated manifest line accepted")

let test_corrupt_qdl_file () =
  with_temp_dir (fun dir ->
      let oc = open_out (Workload_io.manifest_path dir) in
      output_string oc "q0001.qdl 5 123\n";
      close_out oc;
      let oc = open_out (Filename.concat dir "q0001.qdl") in
      output_string oc "relation r cardinality\n";
      close_out oc;
      match Workload_io.load_result ~dir with
      | Error { file; _ } ->
        Alcotest.(check string) "QDL file blamed" (Filename.concat dir "q0001.qdl")
          file
      | Ok _ -> Alcotest.fail "corrupt QDL accepted")

let test_missing_qdl_file () =
  with_temp_dir (fun dir ->
      let oc = open_out (Workload_io.manifest_path dir) in
      output_string oc "missing.qdl 5 123\n";
      close_out oc;
      match Workload_io.load_result ~dir with
      | Error { file; line = 0; _ } ->
        Alcotest.(check string) "missing file blamed"
          (Filename.concat dir "missing.qdl") file
      | Error e ->
        Alcotest.failf "wrong error location: %s" (Workload_io.error_to_string e)
      | Ok _ -> Alcotest.fail "missing QDL accepted")

let test_comments_and_blanks_skipped () =
  with_temp_dir (fun dir ->
      let oc = open_out (Workload_io.manifest_path dir) in
      output_string oc "# header\n\n# another\n";
      close_out oc;
      Alcotest.(check int) "empty workload" 0 (List.length (load ~dir)))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "manifest format" `Quick test_manifest_format;
    Alcotest.test_case "missing manifest" `Quick test_missing_manifest;
    Alcotest.test_case "malformed manifest" `Quick test_malformed_manifest;
    Alcotest.test_case "truncated manifest line" `Quick test_truncated_manifest_line;
    Alcotest.test_case "corrupt qdl file" `Quick test_corrupt_qdl_file;
    Alcotest.test_case "missing qdl file" `Quick test_missing_qdl_file;
    Alcotest.test_case "comments skipped" `Quick test_comments_and_blanks_skipped;
  ]

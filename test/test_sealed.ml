(* The sealed-file codec (Ljqo_obs.Sealed) under its two formats: the
   selectivity calibration and a checkpoint record.  Golden bytes pin what
   the writers produce and what the readers accept, and one set of
   corruption properties runs over both: no proper prefix loads, a
   single-byte mutation is refused or loads the same value, and a lenient
   spelling of any numeric token is refused even when its line is
   re-sealed.  The first two run for the record in the harness section
   ([harness_cases]). *)

module Sealed = Ljqo_obs.Sealed
module Calibration = Ljqo_feedback.Calibration
module Checkpoint = Ljqo_harness.Checkpoint

type verdict = Refused | Same | Different

(* A format under test: the bytes of one fixed value, and how candidate
   bytes load compared with that value. *)
type format = { name : string; bytes : string; load : string -> verdict }

let verdict same = function
  | Error _ -> Refused
  | Ok v -> if same v then Same else Different

let bits = Int64.bits_of_float

let entries = [ ("default", 1.0); ("card-x10", 0.25); ("graph-star", 12.5) ]

let calibration_format =
  let same (c : Calibration.t) =
    List.equal
      (fun (n, f) (n', f') -> String.equal n n' && bits f = bits f')
      entries c.entries
  in
  {
    name = "calibration";
    bytes = Calibration.to_string { entries };
    load = (fun s -> verdict same (Calibration.of_string s));
  }

(* A journal line, as the loader reads it: without its newline. *)
let record_format =
  let r = Test_harness.sample_record () in
  let same (i, r') =
    i = 12
    && r'.Checkpoint.timeouts = r.Checkpoint.timeouts
    && Test_harness.float_bits r' = Test_harness.float_bits r
  in
  let line = Checkpoint.record_line 12 r in
  {
    name = "checkpoint record";
    bytes = String.sub line 0 (String.length line - 1);
    load =
      (fun s ->
        verdict same (Option.to_result ~none:() (Checkpoint.parse_record s)));
  }

let formats = [ calibration_format; record_format ]

(* --- golden bytes ------------------------------------------------------- *)

(* The bytes the formats had before they shared a codec. *)
let calibration_bytes =
  "# ljqo-feedback-calibration v1\n\
   H 3 efb92c29f01c13c0395e8c05dccc26c5\n\
   C default 3ff0000000000000 003d5ee1c80ea9756634464fad2bef8e\n\
   C card-x10 3fd0000000000000 3381953ef61b4d255cf1cc5340982655\n\
   C graph-star 4029000000000000 8a1ee57ba67441f33f7e2080bb2633c0\n"

let record_bytes =
  "R 12 3 2 2 3ff8000000000000 8000000000000000 400921fb54442d18 \
   44dfde9f10a8d361 4bf7c4a6a4627eeac0ba34ad9f924de3\n"

let test_golden () =
  Alcotest.(check string)
    "calibration bytes" calibration_bytes calibration_format.bytes;
  Alcotest.(check string)
    "record bytes" record_bytes
    (Checkpoint.record_line 12 (Test_harness.sample_record ()));
  List.iter
    (fun (f, bytes) ->
      if f.load bytes <> Same then
        Alcotest.failf "%s: golden bytes do not load" f.name)
    [
      (calibration_format, calibration_bytes);
      (record_format, String.trim record_bytes);
    ]

(* --- corruption properties ---------------------------------------------- *)

let no_proper_prefix_loads f () =
  for k = 0 to String.length f.bytes - 1 do
    if f.load (String.sub f.bytes 0 k) <> Refused then
      Alcotest.failf "%s: the %d-byte prefix loaded" f.name k
  done

(* The replacement bytes the per-format suites drew from, merged. *)
let replacements = [ '0'; '1'; '9'; 'a'; 'f'; 'R'; 'W'; ' '; '\n'; 'x'; '_' ]

let mutation_refused_or_identical f () =
  String.iteri
    (fun k c ->
      List.iter
        (fun c' ->
          let b = Bytes.of_string f.bytes in
          Bytes.set b k c';
          if f.load (Bytes.to_string b) = Different then
            Alcotest.failf "%s: offset %d (%C -> %C) loaded another value"
              f.name k c c')
        replacements)
    f.bytes

(* Spellings that [int_of_string] accepts beyond the canonical one. *)
let lenient tok =
  let n = String.length tok in
  [
    "0x" ^ tok;
    "0o17";
    "0b101";
    "+" ^ tok;
    "-" ^ tok;
    "0" ^ tok;
    (if n >= 2 then String.sub tok 0 1 ^ "_" ^ String.sub tok 1 (n - 1)
     else tok ^ "_");
  ]

(* Decimals and float bits; no tag or name in these files is all
   lowercase hex. *)
let numeric tok =
  tok <> ""
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       tok

let test_lenient_tokens_refused () =
  List.iter
    (fun f ->
      let lines = String.split_on_char '\n' f.bytes in
      (* The bytes with token [ti] of line [li] respelled, and that line
         re-sealed. *)
      let respell li toks ti tok' =
        let toks = List.mapi (fun j t -> if j = ti then tok' else t) toks in
        let line = String.trim (Sealed.seal toks) in
        String.concat "\n"
          (List.mapi (fun j l -> if j = li then line else l) lines)
      in
      List.iteri
        (fun li line ->
          match Sealed.unseal line with
          | None -> ()
          | Some toks ->
            if f.load (respell li toks 0 (List.hd toks)) <> Same then
              Alcotest.failf "%s: re-sealing line %d as it is broke it" f.name
                (li + 1);
            List.iteri
              (fun ti tok ->
                if ti > 0 && numeric tok then
                  List.iter
                    (fun tok' ->
                      if tok' <> tok && f.load (respell li toks ti tok') <> Refused
                      then
                        Alcotest.failf "%s: line %d loaded with %S spelled %S"
                          f.name (li + 1) tok tok')
                    (lenient tok))
              toks)
        lines)
    formats

let suite =
  [
    Alcotest.test_case "golden bytes, both ways" `Quick test_golden;
    Alcotest.test_case "calibration: no proper prefix loads" `Quick
      (no_proper_prefix_loads calibration_format);
    Alcotest.test_case "calibration: mutation refused or identical" `Quick
      (mutation_refused_or_identical calibration_format);
    Alcotest.test_case "lenient tokens refused" `Quick
      test_lenient_tokens_refused;
  ]

let harness_cases =
  [
    Alcotest.test_case "truncation never yields a record" `Quick
      (no_proper_prefix_loads record_format);
    Alcotest.test_case "single-byte mutation rejected or identical" `Quick
      (mutation_refused_or_identical record_format);
  ]

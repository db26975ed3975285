(* Per-catalog calibration of the selectivity model, fitted from executed
   plans.

   Model: the estimator's error compounds per applied join predicate — at
   depth d the estimate has folded in x_d edge selectivities, so a single
   per-edge multiplicative correction c gives log est'(d) ~ log est(d) +
   x_d log c.  Fitting log (act/est) against x_d through the origin by
   least squares therefore yields log c = sum(x y) / sum(x^2), the exact
   minimizer of the squared log-q residual on the training samples — which
   is why applying the fitted factor can only improve the mean log error
   on the data it was fitted to.  The file schema is in calibration.mli. *)

module Sealed = Ljqo_obs.Sealed

type t = { entries : (string * float) list }  (* spec name -> sel_factor *)

(* Guard rail on fitted factors: a correction outside [1e-3, 1e3] means the
   fit chased a degenerate sample set; estimates that wrong are an
   estimator bug, not a calibration target. *)
let factor_floor = 1e-3

let factor_ceiling = 1e3

let clamp_factor f = Float.max factor_floor (Float.min factor_ceiling f)

let fit_samples samples =
  let sxx = ref 0.0 and sxy = ref 0.0 in
  List.iter
    (fun (s : Feedback.sample) ->
      if s.edges > 0 && s.est > 0.0 && s.act > 0.0 then begin
        let x = float_of_int s.edges in
        let y = log (s.act /. s.est) in
        sxx := !sxx +. (x *. x);
        sxy := !sxy +. (x *. y)
      end)
    samples;
  if !sxx > 0.0 then Some (clamp_factor (exp (!sxy /. !sxx))) else None

let fit_runs runs =
  fit_samples
    (List.concat_map (fun (r : Feedback.run) -> r.measurement.samples) runs)

let factor t name = List.assoc_opt name t.entries

let magic = "# ljqo-feedback-calibration v1"

(* Catalog names are single tokens (benchmark spec names); a space would
   shift every token after it and break the seal anyway, but refuse early
   with a clear error. *)
let valid_name s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       s

let to_string t =
  List.iter
    (fun (name, _) ->
      if not (valid_name name) then
        invalid_arg
          (Printf.sprintf "Calibration.to_string: bad catalog name %S" name))
    t.entries;
  Sealed.to_string ~magic
    ([ "H"; Sealed.int (List.length t.entries) ]
    :: List.map (fun (name, f) -> [ "C"; name; Sealed.float f ]) t.entries)

let decode_entry = function
  | [ "C"; name; f ] when valid_name name -> (
    match Sealed.float_of_token f with
    | Some f when f >= factor_floor && f <= factor_ceiling -> Some (name, f)
    | _ -> None)
  | _ -> None

let decode_header = function [ "H"; n ] -> Sealed.int_of_token n | _ -> None

let of_string s =
  let ( let* ) = Result.bind in
  let* lines = Sealed.of_string ~magic s in
  match lines with
  | [] -> Error "truncated file"
  | header :: entries -> (
    match decode_header header with
    | None -> Sealed.error ~line:2 "bad header"
    | Some n when n <> List.length entries ->
      Error
        (Printf.sprintf "expected %d entry lines, found %d" n
           (List.length entries))
    | Some _ ->
      let* entries =
        Sealed.entries ~first:3 ~noun:"catalog" decode_entry entries
      in
      Ok { entries })

let save ~path t = Sealed.write ~path (to_string t)

let load = Sealed.load of_string

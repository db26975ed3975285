type series = { name : string; points : (float * float) list }

(* SVG needs no quoting beyond the XML specials: series names come from
   method/query labels but may still carry anything. *)
let xml_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let svg_palette =
  [| "#1f77b4"; "#d62728"; "#2ca02c"; "#9467bd"; "#ff7f0e"; "#8c564b"; "#17becf" |]

let render_svg ?(x_label = "x") ?(y_label = "y") ~title series_list =
  let width = 640 and height = 400 in
  let b = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\" font-family=\"sans-serif\" font-size=\"12\">\n"
    width height width height;
  pr "<rect width=\"%d\" height=\"%d\" fill=\"white\"/>\n" width height;
  pr "<text x=\"%d\" y=\"18\" text-anchor=\"middle\" font-size=\"14\">%s</text>\n"
    (width / 2) (xml_escape title);
  let all_points = List.concat_map (fun s -> s.points) series_list in
  (match all_points with
  | [] -> pr "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">(no data)</text>\n"
            (width / 2) (height / 2)
  | (x0, y0) :: _ ->
    let fold f init = List.fold_left (fun acc (x, y) -> f acc x y) init all_points in
    let xmin = fold (fun a x _ -> Float.min a x) x0 in
    let xmax = fold (fun a x _ -> Float.max a x) x0 in
    let ymin = fold (fun a _ y -> Float.min a y) y0 in
    let ymax = fold (fun a _ y -> Float.max a y) y0 in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let left = 70 and right = width - 20 and top = 35 and bottom = height - 50 in
    let px x = float_of_int left +. ((x -. xmin) /. xspan *. float_of_int (right - left)) in
    let py y =
      float_of_int bottom -. ((y -. ymin) /. yspan *. float_of_int (bottom - top))
    in
    (* axes *)
    pr
      "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"black\"/>\n"
      left top left bottom;
    pr
      "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"black\"/>\n"
      left bottom right bottom;
    pr
      "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%s</text>\n"
      ((left + right) / 2) (height - 12) (xml_escape x_label);
    pr
      "<text x=\"14\" y=\"%d\" text-anchor=\"middle\" transform=\"rotate(-90 14 \
       %d)\">%s</text>\n"
      ((top + bottom) / 2) ((top + bottom) / 2) (xml_escape y_label);
    (* tick labels at the extremes *)
    pr "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%.3g</text>\n" (left - 5)
      (bottom + 4) ymin;
    pr "<text x=\"%d\" y=\"%d\" text-anchor=\"end\">%.3g</text>\n" (left - 5)
      (top + 4) ymax;
    pr "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%.3g</text>\n" left
      (bottom + 16) xmin;
    pr "<text x=\"%d\" y=\"%d\" text-anchor=\"middle\">%.3g</text>\n" right
      (bottom + 16) xmax;
    List.iteri
      (fun si s ->
        let color = svg_palette.(si mod Array.length svg_palette) in
        let pts = List.sort compare s.points in
        if pts <> [] then begin
          pr "<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\""
            color;
          List.iter (fun (x, y) -> pr "%.1f,%.1f " (px x) (py y)) pts;
          pr "\"/>\n";
          List.iter
            (fun (x, y) ->
              pr "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"2.5\" fill=\"%s\"/>\n" (px x)
                (py y) color)
            pts
        end;
        (* legend entry *)
        let ly = top + 8 + (si * 16) in
        pr
          "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"%s\" \
           stroke-width=\"2\"/>\n"
          (right - 110) ly (right - 90) ly color;
        pr "<text x=\"%d\" y=\"%d\">%s</text>\n" (right - 84) (ly + 4)
          (xml_escape s.name))
      series_list);
  pr "</svg>\n";
  Buffer.contents b

let render ?(x_label = "x") ?(y_label = "y") ~title series_list =
  let width = 64 and height = 20 in
  let all_points = List.concat_map (fun s -> s.points) series_list in
  match all_points with
  | [] -> title ^ "\n(no data)\n"
  | (x0, y0) :: _ ->
    let fold f init = List.fold_left (fun acc (x, y) -> f acc x y) init all_points in
    let xmin = fold (fun a x _ -> Float.min a x) x0 in
    let xmax = fold (fun a x _ -> Float.max a x) x0 in
    let ymin = fold (fun a _ y -> Float.min a y) y0 in
    let ymax = fold (fun a _ y -> Float.max a y) y0 in
    let xspan = if xmax -. xmin <= 0.0 then 1.0 else xmax -. xmin in
    let yspan = if ymax -. ymin <= 0.0 then 1.0 else ymax -. ymin in
    let grid = Array.make_matrix height width ' ' in
    let place cx cy ch =
      if cx >= 0 && cx < width && cy >= 0 && cy < height then grid.(cy).(cx) <- ch
    in
    List.iteri
      (fun si s ->
        let ch = Char.chr (Char.code 'a' + (si mod 26)) in
        let to_cell (x, y) =
          let cx = int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)) in
          let cy =
            height - 1
            - int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
          in
          (cx, cy)
        in
        (* connect consecutive points with linear interpolation *)
        let rec connect = function
          | (p1 : float * float) :: (p2 :: _ as rest) ->
            let c1x, c1y = to_cell p1 and c2x, c2y = to_cell p2 in
            let steps = max (abs (c2x - c1x)) (abs (c2y - c1y)) in
            for k = 0 to steps do
              let f = if steps = 0 then 0.0 else float_of_int k /. float_of_int steps in
              let cx = c1x + int_of_float (f *. float_of_int (c2x - c1x)) in
              let cy = c1y + int_of_float (f *. float_of_int (c2y - c1y)) in
              place cx cy ch
            done;
            connect rest
          | [ p ] ->
            let cx, cy = to_cell p in
            place cx cy ch
          | [] -> ()
        in
        connect (List.sort compare s.points))
      series_list;
    let buf = Buffer.create ((width + 12) * (height + 6)) in
    Buffer.add_string buf (title ^ "\n");
    Buffer.add_string buf (Printf.sprintf "%s (%.3g .. %.3g)\n" y_label ymin ymax);
    Array.iteri
      (fun row line ->
        let y = ymax -. (float_of_int row /. float_of_int (height - 1) *. yspan) in
        Buffer.add_string buf (Printf.sprintf "%8.3g |" y);
        Buffer.add_string buf (String.init width (fun c -> line.(c)));
        Buffer.add_char buf '\n')
      grid;
    Buffer.add_string buf (String.make 10 ' ' ^ String.make width '-' ^ "\n");
    Buffer.add_string buf
      (Printf.sprintf "%10s%-8.3g%s%8.3g\n" "" xmin
         (String.make (max 1 (width - 16)) ' ')
         xmax);
    Buffer.add_string buf (Printf.sprintf "%10s%s\n" "" x_label);
    List.iteri
      (fun si s ->
        Buffer.add_string buf
          (Printf.sprintf "  %c = %s\n" (Char.chr (Char.code 'a' + (si mod 26))) s.name))
      series_list;
    Buffer.contents buf

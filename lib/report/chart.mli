(** Minimal ASCII line charts, for rendering the paper's figures in a
    terminal.

    Each series is a set of (x, y) points; the chart draws each series with
    its own letter on a character grid, with y growing upward.  Intended for
    the handful-of-series, handful-of-points shape of the paper's figures
    (average scaled cost vs time limit). *)

type series = { name : string; points : (float * float) list }

val render :
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** The plot area is 64x20 characters.
    Series are labelled [a], [b], ... in a legend; overlapping points show
    the later series' letter. *)

val render_svg :
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** The same chart as standalone SVG (640x400 px): one polyline plus
    point markers per series, axes with extreme-value tick labels, and a
    legend.  Output is deterministic for a given input; no external assets. *)

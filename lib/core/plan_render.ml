open Ljqo_catalog

(* A rendered node: its own label plus already-rendered children. *)
type node = { label : string; children : node list }

let rec emit buf prefix is_last node =
  (match node.children with
  | [] ->
    Buffer.add_string buf prefix;
    Buffer.add_string buf (if is_last then "└── " else "├── ");
    Buffer.add_string buf node.label;
    Buffer.add_char buf '\n'
  | _ ->
    Buffer.add_string buf prefix;
    Buffer.add_string buf (if is_last then "└── " else "├── ");
    Buffer.add_string buf node.label;
    Buffer.add_char buf '\n';
    let prefix' = prefix ^ (if is_last then "    " else "│   ") in
    let rec children = function
      | [] -> ()
      | [ c ] -> emit buf prefix' true c
      | c :: rest ->
        emit buf prefix' false c;
        children rest
    in
    children node.children)

let to_string root =
  let buf = Buffer.create 256 in
  Buffer.add_string buf root.label;
  Buffer.add_char buf '\n';
  let rec children = function
    | [] -> ()
    | [ c ] -> emit buf "" true c
    | c :: rest ->
      emit buf "" false c;
      children rest
  in
  children root.children;
  Buffer.contents buf

let leaf query r =
  {
    label =
      Printf.sprintf "%s [%.0f rows]" (Query.relation query r).Relation.name
        (Query.cardinality query r);
    children = [];
  }

let join_label ~card ~cost =
  Printf.sprintf "|><| est %.4g (cost %.4g)" card cost

let default_model = (module Ljqo_cost.Memory_model : Ljqo_cost.Cost_model.S)

let render_plan ?(model = default_model) query plan =
  let e = Ljqo_cost.Plan_cost.eval model query plan in
  let root =
    Array.to_seq plan
    |> Seq.mapi (fun i r -> (i, r))
    |> Seq.fold_left
         (fun acc (i, r) ->
           match acc with
           | None -> Some (leaf query r)
           | Some outer ->
             Some
               {
                 label = join_label ~card:e.cards.(i) ~cost:e.step_costs.(i);
                 children = [ outer; leaf query r ];
               })
         None
  in
  match root with
  | Some n -> to_string n
  | None -> invalid_arg "Plan_render.render_plan: empty plan"

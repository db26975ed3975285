(* Run isolation for the experiment harness.

   Every per-query (or per-replicate) unit of work is executed through
   [run], which turns the three ways a run can end — normal completion,
   wall-clock timeout, arbitrary crash — into an ordinary value.  Long batch
   experiments then record the failure and keep going instead of losing
   hours of completed work to one bad query. *)

let log_src = Logs.Src.create "ljqo.guard" ~doc:"per-run isolation"

module Log = (val Logs.src_log log_src)

type failure = { query_id : int; exn : string; backtrace : string }

type 'a t =
  | Completed of 'a
  | Crashed of failure
  | Timed_out of { query_id : int }

let run ~query_id f =
  match f () with
  | v -> Completed v
  | exception Ljqo_core.Budget.Deadline_exceeded ->
    Log.warn (fun m -> m "query %d: wall-clock deadline exceeded" query_id);
    Timed_out { query_id }
  | exception exn ->
    let backtrace = Printexc.get_backtrace () in
    let exn = Printexc.to_string exn in
    Log.err (fun m -> m "query %d crashed: %s" query_id exn);
    Crashed { query_id; exn; backtrace }

let pp_failure ppf { query_id; exn; backtrace } =
  Format.fprintf ppf "query %d: %s" query_id exn;
  if backtrace <> "" then Format.fprintf ppf "@,%s" (String.trim backtrace)

let describe = function
  | Completed _ -> "completed"
  | Crashed f -> Format.asprintf "crashed (%a)" pp_failure f
  | Timed_out { query_id } -> Printf.sprintf "query %d: timed out" query_id

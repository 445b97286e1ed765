open Coign_util

type sink = Span.t Sink.t

type open_span = {
  os_id : int;
  os_parent : int option;
  os_name : string;
  os_cat : string;
  os_start_us : float;
}

type t = {
  tr_id : int;
  tr_sink : sink;
  mutable tr_next : int;       (* next span id *)
  mutable tr_open : open_span list;  (* innermost first *)
  mutable tr_emitted : int;
}

let create ?(trace_id = 1) sink = { tr_id = trace_id; tr_sink = sink; tr_next = 0; tr_open = []; tr_emitted = 0 }

let depth t = List.length t.tr_open
let span_count t = t.tr_emitted

let open_span t ~name ~cat ~at_us =
  let id = t.tr_next in
  t.tr_next <- id + 1;
  let parent = match t.tr_open with [] -> None | os :: _ -> Some os.os_id in
  t.tr_open <-
    { os_id = id; os_parent = parent; os_name = name; os_cat = cat; os_start_us = at_us }
    :: t.tr_open;
  id

let close_span t ?(args = []) id ~at_us =
  match t.tr_open with
  | os :: rest when os.os_id = id ->
      t.tr_open <- rest;
      t.tr_emitted <- t.tr_emitted + 1;
      t.tr_sink
        {
          Span.sp_trace = t.tr_id;
          sp_id = os.os_id;
          sp_parent = os.os_parent;
          sp_name = os.os_name;
          sp_cat = os.os_cat;
          sp_start_us = os.os_start_us;
          sp_dur_us = Float.max 0. (at_us -. os.os_start_us);
          sp_args = args;
        }
  | _ -> invalid_arg "Trace.close_span: unbalanced span (not the innermost open span)"

let with_span t ~name ~cat ~clock ?(args = fun _ -> []) f =
  let id = open_span t ~name ~cat ~at_us:(clock ()) in
  match f () with
  | v ->
      close_span t ~args:(args (Ok v)) id ~at_us:(clock ());
      v
  | exception e ->
      close_span t
        ~args:(args (Error e) @ [ ("error", Jsonu.Str (Printexc.to_string e)) ])
        id ~at_us:(clock ());
      raise e

let chrome_json spans =
  Jsonu.to_string
    (Jsonu.Obj
       [
         ("traceEvents", Jsonu.Arr (List.map Span.chrome_event spans));
         ("displayTimeUnit", Jsonu.Str "ms");
       ])

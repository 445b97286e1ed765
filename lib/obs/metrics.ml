open Coign_util

type value =
  | V_counter of float ref
  | V_gauge of float ref
  | V_histogram of Exp_bucket.t

type series = { se_labels : (string * string) list; se_value : value }

type family = {
  fa_name : string;
  fa_help : string;
  fa_kind : string;  (* "counter" | "gauge" | "histogram" *)
  mutable fa_series : series list;  (* newest first; exposed sorted by label set *)
}

type registry = {
  mutable families : family list;  (* registration order *)
  by_name : (string, family) Hashtbl.t;
}

type counter = float ref
type gauge = float ref
type histogram = Exp_bucket.t

let registry () = { families = []; by_name = Hashtbl.create 32 }

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

let family reg ~kind ~help name =
  match Hashtbl.find_opt reg.by_name name with
  | Some fa ->
      if fa.fa_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s already registered as a %s" name fa.fa_kind);
      fa
  | None ->
      if not (valid_name name) then invalid_arg ("Metrics: invalid metric name " ^ name);
      let fa = { fa_name = name; fa_help = help; fa_kind = kind; fa_series = [] } in
      reg.families <- fa :: reg.families;
      Hashtbl.add reg.by_name name fa;
      fa

(* Registering the same (name, labels) twice returns the existing
   instrument, so successive RTE installs against one registry
   accumulate instead of shadowing. *)
let series fa ~labels ~make =
  let labels = List.sort compare labels in
  match List.find_opt (fun se -> se.se_labels = labels) fa.fa_series with
  | Some se -> se.se_value
  | None ->
      let v = make () in
      fa.fa_series <- { se_labels = labels; se_value = v } :: fa.fa_series;
      v

let counter reg ?(help = "") ?(labels = []) name =
  match
    series (family reg ~kind:"counter" ~help name) ~labels ~make:(fun () ->
        V_counter (ref 0.))
  with
  | V_counter r -> r
  | _ -> assert false

let gauge reg ?(help = "") ?(labels = []) name =
  match
    series (family reg ~kind:"gauge" ~help name) ~labels ~make:(fun () -> V_gauge (ref 0.))
  with
  | V_gauge r -> r
  | _ -> assert false

let histogram reg ?(help = "") ?(labels = []) name =
  match
    series (family reg ~kind:"histogram" ~help name) ~labels ~make:(fun () ->
        V_histogram (Exp_bucket.create ()))
  with
  | V_histogram h -> h
  | _ -> assert false

let inc ?(by = 1.) c =
  if not (by >= 0.) then invalid_arg "Metrics.inc: counters only go up";
  c := !c +. by

let inc_int c by = inc ~by:(float_of_int by) c
let counter_value c = !c

let set g v = g := v
let gauge_value g = !g

let observe h v = Exp_bucket.add h ~bytes:(max 0 v)
let histogram_count = Exp_bucket.message_count
let histogram_sum = Exp_bucket.total_bytes

(* --- exposition ---------------------------------------------------- *)

(* The Prometheus text format is not JSON: label values escape exactly
   backslash, double-quote, and line-feed; HELP text escapes backslash
   and line-feed (it is not quoted, so quotes stay raw). Anything else
   — tabs included — passes through as-is. *)
let prometheus_escape ~quote v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' when quote -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_body labels =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prometheus_escape ~quote:true v)) labels)

let labeled name labels =
  if labels = [] then name else Printf.sprintf "%s{%s}" name (label_body labels)

(* The text format spells non-finite values NaN, +Inf and -Inf. *)
let number v =
  if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else if v > 0. then "+Inf"
  else "-Inf"

let sorted_families reg =
  List.sort (fun a b -> compare a.fa_name b.fa_name) reg.families

let sorted_series fa = List.sort (fun a b -> compare a.se_labels b.se_labels) fa.fa_series

let prometheus reg =
  let buf = Buffer.create 1024 in
  let line name labels value =
    Buffer.add_string buf (Printf.sprintf "%s %s\n" (labeled name labels) value)
  in
  List.iter
    (fun fa ->
      if fa.fa_help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fa.fa_name (prometheus_escape ~quote:false fa.fa_help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fa.fa_name fa.fa_kind);
      List.iter
        (fun se ->
          match se.se_value with
          | V_counter r | V_gauge r -> line fa.fa_name se.se_labels (number !r)
          | V_histogram h ->
              let cumulative = ref 0 in
              Exp_bucket.fold
                (fun ~index ~count ~bytes:_ () ->
                  cumulative := !cumulative + count;
                  let _, hi = Exp_bucket.bucket_bounds index in
                  line (fa.fa_name ^ "_bucket")
                    (se.se_labels @ [ ("le", string_of_int hi) ])
                    (string_of_int !cumulative))
                h ();
              line (fa.fa_name ^ "_bucket")
                (se.se_labels @ [ ("le", "+Inf") ])
                (string_of_int (Exp_bucket.message_count h));
              line (fa.fa_name ^ "_sum") se.se_labels
                (string_of_int (Exp_bucket.total_bytes h));
              line (fa.fa_name ^ "_count") se.se_labels
                (string_of_int (Exp_bucket.message_count h)))
        (sorted_series fa))
    (sorted_families reg);
  Buffer.contents buf

let json reg =
  let series_json se =
    let payload =
      match se.se_value with
      | V_counter r | V_gauge r -> [ ("value", Jsonu.Float !r) ]
      | V_histogram h ->
          let buckets =
            List.rev
              (Exp_bucket.fold
                 (fun ~index ~count ~bytes acc ->
                   let lo, hi = Exp_bucket.bucket_bounds index in
                   Jsonu.Obj
                     [
                       ("lo", Jsonu.Int lo); ("hi", Jsonu.Int hi);
                       ("count", Jsonu.Int count); ("sum", Jsonu.Int bytes);
                     ]
                   :: acc)
                 h [])
          in
          [
            ("count", Jsonu.Int (Exp_bucket.message_count h));
            ("sum", Jsonu.Int (Exp_bucket.total_bytes h));
            ("buckets", Jsonu.Arr buckets);
          ]
    in
    Jsonu.Obj
      ((if se.se_labels = [] then []
        else
          [ ("labels", Jsonu.Obj (List.map (fun (k, v) -> (k, Jsonu.Str v)) se.se_labels)) ])
      @ payload)
  in
  Jsonu.Obj
    (List.map
       (fun fa ->
         ( fa.fa_name,
           Jsonu.Obj
             [
               ("type", Jsonu.Str fa.fa_kind);
               ("help", Jsonu.Str fa.fa_help);
               ("series", Jsonu.Arr (List.map series_json (sorted_series fa)));
             ] ))
       (sorted_families reg))

let to_json_string reg = Jsonu.to_string (json reg)

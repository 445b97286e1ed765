open Coign_idl
open Coign_image

type severity = Info | Warning | Error

let severity_name = function Info -> "info" | Warning -> "warning" | Error -> "error"

type diagnostic = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
}

exception Rejected of diagnostic list

let diag code severity subject message = { code; severity; subject; message }

let order =
  List.sort (fun a b ->
      compare (a.code, a.subject, a.message) (b.code, b.subject, b.message))

let rec has_recursive_marker = function
  | Idl_type.Opaque tag -> tag = Image_meta.recursive_marker
  | Idl_type.Array u | Idl_type.Ptr u -> has_recursive_marker u
  | Idl_type.Struct fields -> List.exists (fun (_, u) -> has_recursive_marker u) fields
  | Idl_type.Void | Idl_type.Int32 | Idl_type.Int64 | Idl_type.Double
  | Idl_type.Bool | Idl_type.Str | Idl_type.Blob | Idl_type.Iface _ ->
      false

let method_has_marker (m : Idl_type.method_sig) =
  has_recursive_marker m.Idl_type.ret
  || List.exists (fun (p : Idl_type.param) -> has_recursive_marker p.Idl_type.pty) m.Idl_type.params

let comma = String.concat ", "

let lint_meta (m : Image_meta.t) =
  let flow = Interface_flow.analyze m in
  let non_remotable = Interface_flow.non_remotable_ifaces flow in
  let is_non_remotable name = List.mem name non_remotable in
  let per_iface f = List.concat_map f m.Image_meta.ifaces in
  let cg001 =
    per_iface (fun i ->
        match
          List.filter
            (fun ms -> not (Idl_type.method_remotable ms))
            i.Image_meta.if_methods
        with
        | [] -> []
        | bad ->
            [
              diag "CG001" Warning i.Image_meta.if_name
                (Printf.sprintf
                   "non-remotable method%s on exported interface: %s"
                   (if List.length bad > 1 then "s" else "")
                   (comma (List.map (fun ms -> ms.Idl_type.mname) bad)));
            ])
  in
  let cg002 =
    (* An interface that is itself remotable but hands around pointers
       to a non-remotable one lets the opaque handle escape one hop
       further than CG001 shows. *)
    per_iface (fun i ->
        if is_non_remotable i.Image_meta.if_name then []
        else
          List.concat_map
            (fun ms ->
              List.filter_map
                (fun j ->
                  if is_non_remotable j then
                    Some
                      (diag "CG002" Warning i.Image_meta.if_name
                         (Printf.sprintf
                            "method %s passes non-remotable interface %s through a remotable interface"
                            ms.Idl_type.mname j))
                  else None)
                (Interface_flow.method_ifaces ms))
            i.Image_meta.if_methods)
  in
  let cg004 =
    List.map
      (fun cname ->
        diag "CG004" Warning cname
          "class is creatable but unreachable from the main program")
      (Interface_flow.unreachable_classes flow)
  in
  let cg005 =
    per_iface (fun i ->
        List.filter_map
          (fun ms ->
            if method_has_marker ms then
              Some
                (diag "CG005" Warning i.Image_meta.if_name
                   (Printf.sprintf
                      "method %s carries an unbounded recursive structure; treated as non-remotable"
                      ms.Idl_type.mname))
            else None)
          i.Image_meta.if_methods)
  in
  let cg006 =
    List.map
      (fun (a, b) ->
        diag "CG006" Info (a ^ " <-> " ^ b)
          ("classes can exchange a non-remotable interface (static hint: only a profiled "
         ^ "call on it ties them to one machine)"))
      (Interface_flow.non_remotable_pairs flow)
    @ List.map
        (fun cname ->
          diag "CG006" Info
            (Coign_com.Runtime.main_class_name ^ " <-> " ^ cname)
            ("main program can hold a non-remotable interface on this class (static hint: "
            ^ "only a profiled call on it pins the class to the client)"))
        (Interface_flow.client_pins flow)
  in
  cg001 @ cg002 @ cg004 @ cg005 @ cg006

let lint_image (img : Binary_image.t) =
  let cg003 =
    List.filter_map
      (fun (cname, apis) ->
        let has k = List.exists (fun a -> Static_analysis.classify_api a = k) apis in
        if has Static_analysis.Gui && has Static_analysis.Storage then
          Some
            (diag "CG003" Warning cname
               "class references both GUI and storage APIs; GUI wins and the class is pinned to the client")
        else None)
      img.Binary_image.api_refs
  in
  let rest =
    match img.Binary_image.meta with
    | None ->
        [
          diag "CG000" Info img.Binary_image.img_name
            "image carries no static interface metadata; interface-flow checks skipped";
        ]
    | Some m -> lint_meta m
  in
  order (cg003 @ rest)

let worst diags =
  List.fold_left
    (fun acc d ->
      match (acc, d.severity) with
      | Some Error, _ | _, Error -> Some Error
      | Some Warning, _ | _, Warning -> Some Warning
      | _ -> Some d.severity)
    None diags

let pp_text ppf diags =
  List.iter
    (fun d ->
      Format.fprintf ppf "%s %s %s: %s@." (severity_name d.severity) d.code
        d.subject d.message)
    diags

let to_json diags =
  let open Coign_util.Jsonu in
  Arr
    (List.map
       (fun d ->
         Obj
           [
             ("code", Str d.code);
             ("severity", Str (severity_name d.severity));
             ("subject", Str d.subject);
             ("message", Str d.message);
           ])
       diags)

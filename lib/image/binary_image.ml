type section = { sec_name : string; sec_size : int }

type t = {
  img_name : string;
  imports : string list;
  sections : section list;
  api_refs : (string * string list) list;
  config : Config_record.t option;
  meta : Image_meta.t option;
}

let create ~name ?meta ~api_refs () =
  {
    img_name = name;
    imports = [ "ole32.dll"; "kernel32.dll"; "user32.dll" ];
    sections = [ { sec_name = ".text"; sec_size = 65536 }; { sec_name = ".data"; sec_size = 16384 } ];
    api_refs;
    config = None;
    meta;
  }

let class_api_refs t cname =
  Option.value ~default:[] (List.assoc_opt cname t.api_refs)

let magic = "COIGNIMG"

let encode t =
  let w = Codec.writer () in
  Codec.w_str w magic;
  Codec.w_str w t.img_name;
  Codec.w_list w (Codec.w_str w) t.imports;
  Codec.w_list w
    (fun s ->
      Codec.w_str w s.sec_name;
      Codec.w_u32 w s.sec_size)
    t.sections;
  Codec.w_list w
    (fun (cname, apis) ->
      Codec.w_str w cname;
      Codec.w_list w (Codec.w_str w) apis)
    t.api_refs;
  (match t.config with
  | None -> Codec.w_u8 w 0
  | Some c ->
      Codec.w_u8 w 1;
      Codec.w_str w (Config_record.encode c));
  (match t.meta with
  | None -> Codec.w_u8 w 0
  | Some m ->
      Codec.w_u8 w 1;
      Codec.w_str w (Image_meta.encode m));
  Codec.contents w

let decode s =
  let r = Codec.reader s in
  if Codec.r_str r <> magic then raise (Codec.Malformed "bad image magic");
  let img_name = Codec.r_str r in
  let imports = Codec.r_list r Codec.r_str in
  let sections =
    Codec.r_list r (fun r ->
        let sec_name = Codec.r_str r in
        let sec_size = Codec.r_u32 r in
        { sec_name; sec_size })
  in
  let api_refs =
    Codec.r_list r (fun r ->
        let cname = Codec.r_str r in
        let apis = Codec.r_list r Codec.r_str in
        (cname, apis))
  in
  let config =
    match Codec.r_u8 r with
    | 0 -> None
    | 1 -> Some (Config_record.decode (Codec.r_str r))
    | n -> raise (Codec.Malformed (Printf.sprintf "bad config tag %d" n))
  in
  (* Images written before the metadata section existed simply end
     here, so its absence (not just a 0 tag) must decode as None. *)
  let meta =
    if Codec.at_end r then None
    else
      match Codec.r_u8 r with
      | 0 -> None
      | 1 -> Some (Image_meta.decode (Codec.r_str r))
      | n -> raise (Codec.Malformed (Printf.sprintf "bad meta tag %d" n))
  in
  Codec.expect_end r;
  { img_name; imports; sections; api_refs; config; meta }

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))

let equal a b =
  a.img_name = b.img_name && a.imports = b.imports && a.sections = b.sections
  && a.api_refs = b.api_refs
  && (match (a.meta, b.meta) with
     | None, None -> true
     | Some x, Some y -> Image_meta.equal x y
     | _ -> false)
  &&
  match (a.config, b.config) with
  | None, None -> true
  | Some x, Some y -> Config_record.equal x y
  | _ -> false

let pp ppf t =
  Format.fprintf ppf "image %s: %d imports, %d sections, %d classes%s" t.img_name
    (List.length t.imports) (List.length t.sections) (List.length t.api_refs)
    ((match t.meta with None -> "" | Some _ -> ", meta")
    ^
    match t.config with
    | None -> ""
    | Some c ->
        ", config "
        ^
        (match Config_record.mode c with
        | Config_record.Off -> "off"
        | Config_record.Profiling -> "profiling"
        | Config_record.Distributed -> "distributed"))

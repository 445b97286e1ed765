type api_class = Gui | Storage | Neutral

let gui_dlls = [ "user32."; "gdi32."; "comctl32."; "comdlg32."; "imm32." ]

let storage_apis =
  [
    "kernel32.CreateFile"; "kernel32.ReadFile"; "kernel32.WriteFile";
    "kernel32.SetFilePointer"; "kernel32.FindFirstFile"; "kernel32.DeleteFile";
    "ole32.StgOpenStorage"; "ole32.StgCreateDocfile";
  ]

let storage_dlls = [ "odbc32."; "mdac." ]

(* Top-level walks, so classifying an API builds no closure over it:
   every analysis session classifies every API its image names. *)
let rec has_prefix api = function
  | [] -> false
  | prefix :: rest -> String.starts_with ~prefix api || has_prefix api rest

let rec is_one_of api = function
  | [] -> false
  | exact :: rest -> String.equal exact api || is_one_of api rest

let classify_api api =
  if has_prefix api gui_dlls then Gui
  else if has_prefix api storage_dlls || is_one_of api storage_apis then Storage
  else Neutral

type verdict = Pin_client | Pin_server | Free

let class_verdict apis =
  let rec go verdict = function
    | [] -> verdict
    | api :: rest -> (
        match classify_api api with
        | Gui -> Pin_client
        | Storage -> go Pin_server rest
        | Neutral -> go verdict rest)
  in
  go Free apis

(* One pass over the image's table; a class listed twice takes its
   first entry's verdict both times. *)
let image_verdicts img =
  let first = Hashtbl.create 64 in
  List.map
    (fun (cname, apis) ->
      match Hashtbl.find_opt first cname with
      | Some verdict -> (cname, verdict)
      | None ->
          let verdict = class_verdict apis in
          Hashtbl.add first cname verdict;
          (cname, verdict))
    img.Coign_image.Binary_image.api_refs

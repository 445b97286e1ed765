let runtime_dll = "coignrte.dll"

let is_instrumented (img : Binary_image.t) =
  match img.imports with first :: _ -> String.equal first runtime_dll | [] -> false

let without_runtime imports = List.filter (fun d -> not (String.equal d runtime_dll)) imports

let instrument ?(classifier = "ifcb") ?(stack_depth = None) (img : Binary_image.t) =
  let config =
    match img.config with
    | Some c ->
        Config_record.with_stack_depth
          (Config_record.with_classifier (Config_record.with_mode c Config_record.Profiling) classifier)
          stack_depth
    | None ->
        Config_record.with_stack_depth
          (Config_record.with_classifier (Config_record.create Config_record.Profiling) classifier)
          stack_depth
  in
  { img with imports = runtime_dll :: without_runtime img.imports; config = Some config }

let write_distribution (img : Binary_image.t) ~entries =
  let base =
    match img.config with
    | Some c -> c
    | None -> Config_record.create Config_record.Distributed
  in
  (* Remove profiling-time entries; the distribution runtime reads only
     what the analyzer wrote. *)
  let cleaned =
    List.fold_left Config_record.remove_entry
      (Config_record.with_mode base Config_record.Distributed)
      (Config_record.entry_names base)
  in
  let config = List.fold_left (fun c (k, v) -> Config_record.set_entry c k v) cleaned entries in
  { img with imports = runtime_dll :: without_runtime img.imports; config = Some config }

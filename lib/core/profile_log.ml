type t = {
  pl_app : string;
  pl_scenario : string;
  pl_classifier : Classifier.t;
  pl_icc : Icc.t;
  pl_instances : int;
  pl_calls : int;
}

let of_run ~app ~scenario rte =
  {
    pl_app = app;
    pl_scenario = scenario;
    pl_classifier = Classifier.copy (Rte.classifier rte);
    pl_icc = Rte.icc rte;
    pl_instances = List.length (Rte.instances_created rte);
    pl_calls = Rte.intercepted_calls rte;
  }

let magic = "COIGNLOG1"

let encode t =
  let w = Coign_image.Codec.writer () in
  Coign_image.Codec.w_str w magic;
  Coign_image.Codec.w_str w t.pl_app;
  Coign_image.Codec.w_str w t.pl_scenario;
  Coign_image.Codec.w_u32 w t.pl_instances;
  Coign_image.Codec.w_u32 w t.pl_calls;
  Coign_image.Codec.w_str w (Classifier.encode t.pl_classifier);
  Coign_image.Codec.w_str w (Icc.encode t.pl_icc);
  Coign_image.Codec.contents w

exception Decode_error of string

let decode s =
  match
    let r = Coign_image.Codec.reader s in
    if Coign_image.Codec.r_str r <> magic then raise (Coign_image.Codec.Malformed "bad magic");
    let pl_app = Coign_image.Codec.r_str r in
    let pl_scenario = Coign_image.Codec.r_str r in
    let pl_instances = Coign_image.Codec.r_u32 r in
    let pl_calls = Coign_image.Codec.r_u32 r in
    let pl_classifier = Classifier.decode (Coign_image.Codec.r_str r) in
    let pl_icc = Icc.decode (Coign_image.Codec.r_str r) in
    Coign_image.Codec.expect_end r;
    { pl_app; pl_scenario; pl_instances; pl_calls; pl_classifier; pl_icc }
  with
  | log -> log
  | exception
      (Coign_image.Codec.Malformed m | Classifier.Decode_error m | Icc.Decode_error m) ->
      raise (Decode_error ("Profile_log.decode: " ^ m))

let save t path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (encode t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode (really_input_string ic (in_channel_length ic)))

let combine a b =
  if not (String.equal a.pl_app b.pl_app) then
    invalid_arg "Profile_log.combine: logs from different applications";
  let classifier, remap = Classifier.merge a.pl_classifier b.pl_classifier in
  let icc_b = Icc.map_classifications (fun c -> remap.(c)) b.pl_icc in
  {
    pl_app = a.pl_app;
    pl_scenario = a.pl_scenario ^ "+" ^ b.pl_scenario;
    pl_classifier = classifier;
    pl_icc = Icc.merge a.pl_icc icc_b;
    pl_instances = a.pl_instances + b.pl_instances;
    pl_calls = a.pl_calls + b.pl_calls;
  }

let combine_all = function
  | [] -> invalid_arg "Profile_log.combine_all: no logs"
  | first :: rest -> List.fold_left combine first rest

let into_image t (image : Coign_image.Binary_image.t) =
  let config =
    match image.Coign_image.Binary_image.config with
    | Some c -> c
    | None -> invalid_arg "Profile_log.into_image: image is not instrumented"
  in
  (* Merge with whatever the config record already holds, reconciling
     classifications by descriptor. *)
  let classifier, icc =
    match
      ( Coign_image.Config_record.entry config Config_keys.classifier,
        Coign_image.Config_record.entry config Config_keys.icc )
    with
    | Some cls, Some icc ->
        let existing = Classifier.decode cls in
        let merged, remap = Classifier.merge existing t.pl_classifier in
        let icc_log = Icc.map_classifications (fun c -> remap.(c)) t.pl_icc in
        (merged, Icc.merge (Icc.decode icc) icc_log)
    | _ -> (t.pl_classifier, t.pl_icc)
  in
  let config =
    Coign_image.Config_record.set_entry
      (Coign_image.Config_record.set_entry config Config_keys.classifier
         (Classifier.encode classifier))
      Config_keys.icc (Icc.encode icc)
  in
  { image with Coign_image.Binary_image.config = Some config }

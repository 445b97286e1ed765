type class_info = {
  ci_cname : string;
  ci_provides : Itype.t list;
  ci_creates : string list;
}

(* Instantiating a class in a scratch context reveals exactly what the
   paper's static analyzer digs out of the binary: the interfaces its
   vtable exports and the CLSIDs reachable from its construction code.
   Constructors may themselves create components, so a create hook with
   an explicit attribution stack records which class performed each
   nested instantiation. *)
let run reg =
  let ctx = Runtime.create_ctx reg in
  let observed : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let stack = ref [] in
  let record child =
    match !stack with
    | [] -> ()
    | parent :: _ ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt observed parent) in
        if not (List.mem child prev) then Hashtbl.replace observed parent (child :: prev)
  in
  let with_frame cname f =
    stack := cname :: !stack;
    Fun.protect ~finally:(fun () -> stack := List.tl !stack) f
  in
  Runtime.set_create_hook ctx
    (Some
       (fun (cls : Runtime.component_class) ~iid ->
         record cls.Runtime.cname;
         with_frame cls.Runtime.cname (fun () -> Runtime.raw_create_instance ctx cls ~iid)));
  List.map
    (fun (cls : Runtime.component_class) ->
      let provides =
        match
          with_frame cls.Runtime.cname (fun () -> Runtime.raw_instantiate ctx cls)
        with
        | id -> Runtime.instance_itypes ctx id
        | exception _ -> []
      in
      let ctor_creates =
        Option.value ~default:[] (Hashtbl.find_opt observed cls.Runtime.cname)
      in
      {
        ci_cname = cls.Runtime.cname;
        ci_provides = provides;
        ci_creates = List.sort_uniq compare (ctor_creates @ cls.Runtime.creates);
      })
    (Runtime.registry_classes reg)

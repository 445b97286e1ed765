open Coign_idl
open Coign_com

let chg ctx us = Runtime.charge ctx ~us

let queries_per_view = 60
let rows_per_fetch = 12
let row_bytes = 700
let odbc_row_bytes = 1_100

(* ---------------------------------------------------------------- *)
(* Interfaces                                                        *)
(* ---------------------------------------------------------------- *)

let i_ben_app =
  Itype.declare "IBenApp"
    [
      Idl_type.method_ "startup" [];
      Idl_type.method_ ~ret:Idl_type.Bool "login" [ Idl_type.param "user" Idl_type.Str ];
      Idl_type.method_ "view_employee" [ Idl_type.param "id" Idl_type.Int32 ];
      Idl_type.method_ "add_employee" [ Idl_type.param "record" Idl_type.Blob ];
      Idl_type.method_ "delete_employee" [ Idl_type.param "id" Idl_type.Int32 ];
      Idl_type.method_ "run_report" [];
      Idl_type.method_ "repaint" [];
      Idl_type.method_ "shutdown" [];
    ]

let ben_app_startup = Itype.slot i_ben_app "startup"
let ben_app_login = Itype.slot i_ben_app "login"
let ben_app_view_employee = Itype.slot i_ben_app "view_employee"
let ben_app_add_employee = Itype.slot i_ben_app "add_employee"
let ben_app_delete_employee = Itype.slot i_ben_app "delete_employee"
let ben_app_run_report = Itype.slot i_ben_app "run_report"
let ben_app_repaint = Itype.slot i_ben_app "repaint"
let ben_app_shutdown = Itype.slot i_ben_app "shutdown"

let i_sql =
  Itype.declare "ISql"
    [
      Idl_type.method_ ~ret:Idl_type.Blob "exec" [ Idl_type.param "statement" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Int32 "exec_update" [ Idl_type.param "statement" Idl_type.Str ];
    ]

let sql_exec = Itype.slot i_sql "exec"
let sql_exec_update = Itype.slot i_sql "exec_update"

let i_logic =
  Itype.declare "IBusinessLogic"
    [
      Idl_type.method_ "init" [ Idl_type.param "db" (Idl_type.Iface "ISql") ];
      Idl_type.method_ ~ret:(Idl_type.Iface "IRecordSet") "fetch"
        [ Idl_type.param "entity" Idl_type.Str; Idl_type.param "key" Idl_type.Int32 ];
      Idl_type.method_ ~ret:Idl_type.Int32 "update"
        [ Idl_type.param "entity" Idl_type.Str; Idl_type.param "record" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "remove"
        [ Idl_type.param "entity" Idl_type.Str; Idl_type.param "key" Idl_type.Int32 ];
    ]

let logic_init = Itype.slot i_logic "init"
let logic_fetch = Itype.slot i_logic "fetch"
let logic_update = Itype.slot i_logic "update"
let logic_remove = Itype.slot i_logic "remove"

let i_recordset =
  Itype.declare "IRecordSet"
    [
      Idl_type.method_ ~ret:Idl_type.Int32 "row_count" [];
      Idl_type.method_ ~ret:Idl_type.Blob "rows"
        [ Idl_type.param "start" Idl_type.Int32; Idl_type.param "count" Idl_type.Int32 ];
    ]

let recordset_row_count = Itype.slot i_recordset "row_count"
let recordset_rows = Itype.slot i_recordset "rows"

let i_cache =
  Itype.declare "IBenCache"
    [
      Idl_type.method_ "init"
        [ Idl_type.param "logic" (Idl_type.Iface "IBusinessLogic");
          Idl_type.param "entity" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Str "lookup" [ Idl_type.param "key" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Int32 "refresh" [ Idl_type.param "key" Idl_type.Int32 ];
      Idl_type.method_ "invalidate_all" [];
    ]

let cache_init = Itype.slot i_cache "init"
let cache_lookup = Itype.slot i_cache "lookup"
let cache_refresh = Itype.slot i_cache "refresh"
let cache_invalidate_all = Itype.slot i_cache "invalidate_all"

let i_validation =
  Itype.declare "IValidation"
    [
      Idl_type.method_ "init" [ Idl_type.param "db" (Idl_type.Iface "ISql") ];
      Idl_type.method_ ~ret:Idl_type.Int32 "validate" [ Idl_type.param "record" Idl_type.Blob ];
    ]

let validation_init = Itype.slot i_validation "init"
let validation_validate = Itype.slot i_validation "validate"

let i_report =
  Itype.declare "IReport"
    [
      Idl_type.method_ "init" [ Idl_type.param "logic" (Idl_type.Iface "IBusinessLogic") ];
      Idl_type.method_ ~ret:Idl_type.Blob "build" [ Idl_type.param "kind" Idl_type.Str ];
    ]

let report_init = Itype.slot i_report "init"
let report_build = Itype.slot i_report "build"

(* ---------------------------------------------------------------- *)
(* GUI: the Visual Basic front end                                   *)
(* ---------------------------------------------------------------- *)

let kit = Widgets.kit ~prefix:"Benefits"

let form_class name widget_count =
  Runtime.define_class name ~api_refs:Widgets.gui_apis (fun ctx0 _self ->
      let fields =
        List.init widget_count (fun _ -> Common.create ctx0 kit.Widgets.button Common.i_control)
      in
      let attach ctx args =
        let parent = Combuild.get_iface args 0 in
        List.iter
          (fun f ->
            ignore (Runtime.call_slot ctx f Common.control_attach [ Value.Iface_ref parent ]))
          fields;
        chg ctx 40.;
        Value.Unit
      in
      let enable ctx _args =
        chg ctx 5.;
        Value.Unit
      in
      let click ctx _args =
        chg ctx 8.;
        Value.Unit
      in
      let set_label ctx args =
        List.iter (fun f -> ignore (Runtime.call_slot ctx f Common.control_set_label args)) fields;
        chg ctx 12.;
        Value.Unit
      in
      let paint ctx _args =
        List.iter
          (fun f -> ignore (Runtime.call_slot ctx f Common.control_enable [ Value.Bool true ]))
          fields;
        chg ctx 45.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [
        Combuild.iface Common.i_control
          [ ("attach", attach); ("enable", enable); ("click", click); ("set_label", set_label) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

let c_login_form = form_class "Benefits.LoginForm" 6
let c_employee_form = form_class "Benefits.EmployeeForm" 18
let c_report_form = form_class "Benefits.ReportForm" 8

(* The commercial graphing component (Office Graph, shipped binary-only). *)
let c_graph =
  Runtime.define_class "Benefits.GraphControl" ~api_refs:Widgets.gui_apis (fun _ctx _self ->
      let stored = ref 0 in
      let put ctx args =
        stored := !stored + Combuild.get_blob args 0;
        chg ctx (float_of_int (Combuild.get_blob args 0) /. 150.);
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 120.;
        Value.Int !stored
      in
      let paint ctx _args =
        chg ctx 160.;
        Value.Unit
      in
      let invalidate ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      [
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
        Combuild.iface Common.i_paint [ ("paint", paint); ("invalidate", invalidate) ];
      ])

(* ---------------------------------------------------------------- *)
(* Data tier                                                         *)
(* ---------------------------------------------------------------- *)

let c_odbc =
  Runtime.define_class "Benefits.OdbcGateway"
    ~api_refs:[ "odbc32.SQLExecDirect"; "odbc32.SQLFetch" ] (fun _ctx _self ->
      let exec ctx args =
        let stmt = Combuild.get_str args 0 in
        let rows = 4 + (String.length stmt mod 13) in
        chg ctx (300. +. float_of_int (rows * 40));
        Value.Blob (rows * odbc_row_bytes)
      in
      let exec_update ctx _args =
        chg ctx 450.;
        Value.Int 1
      in
      [ Combuild.iface i_sql [ ("exec", exec); ("exec_update", exec_update) ] ])

let c_recordset =
  Runtime.define_class "Benefits.RecordSet" (fun _ctx _self ->
      let stored = ref 0 in
      let put ctx args =
        stored := !stored + Combuild.get_blob args 0;
        chg ctx 10.;
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 5.;
        Value.Int !stored
      in
      let row_count ctx _args =
        chg ctx 2.;
        Value.Int (!stored / row_bytes)
      in
      let rows ctx args =
        let start = Combuild.get_int args 0 in
        let count = Combuild.get_int args 1 in
        let have = !stored / row_bytes in
        let n = max 0 (min count (have - start)) in
        chg ctx 8.;
        Value.Blob (n * row_bytes)
      in
      [
        Combuild.iface i_recordset [ ("row_count", row_count); ("rows", rows) ];
        Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ];
      ])

(* ---------------------------------------------------------------- *)
(* Middle tier                                                       *)
(* ---------------------------------------------------------------- *)

let i_audit =
  Itype.declare "IAuditLog"
    [
      Idl_type.method_ "append"
        [ Idl_type.param "action" Idl_type.Str; Idl_type.param "record" Idl_type.Blob ];
      Idl_type.method_ ~ret:Idl_type.Int32 "entry_count" [];
    ]

let audit_append = Itype.slot i_audit "append"

(* Every mutation is audited beside the database. *)
let c_audit_log =
  Runtime.define_class "Benefits.AuditLog" (fun _ctx _self ->
      let db = ref None in
      let entries = ref 0 in
      let append ctx args =
        let action = Combuild.get_str args 0 in
        incr entries;
        (match !db with
        | Some d ->
            ignore
              (Common.call_ret_int ctx d sql_exec_update
                 [ Value.Str ("INSERT INTO audit VALUES ('" ^ action ^ "')") ])
        | None -> ());
        chg ctx 25.;
        Value.Unit
      in
      let entry_count ctx _args =
        chg ctx 2.;
        Value.Int !entries
      in
      let init ctx args =
        db := Some (Combuild.get_iface args 0);
        chg ctx 5.;
        Value.Unit
      in
      [
        Combuild.iface i_audit [ ("append", append); ("entry_count", entry_count) ];
        Combuild.iface i_validation
          [ ("init", init); ("validate", fun ctx _args -> chg ctx 1.; (Value.Int 0)) ];
      ])

let i_session =
  Itype.declare "ISession"
    [
      Idl_type.method_ ~ret:Idl_type.Str "open_session" [ Idl_type.param "user" Idl_type.Str ];
      Idl_type.method_ ~ret:Idl_type.Bool "authorized" [ Idl_type.param "action" Idl_type.Str ];
    ]

let session_open_session = Itype.slot i_session "open_session"
let session_authorized = Itype.slot i_session "authorized"

let c_session_mgr =
  Runtime.define_class "Benefits.SessionMgr" (fun _ctx _self ->
      let user = ref "" in
      let open_session ctx args =
        user := Combuild.get_str args 0;
        chg ctx 60.;
        Value.Str ("session:" ^ !user)
      in
      let authorized ctx args =
        ignore (Combuild.get_str args 0);
        chg ctx 8.;
        Value.Bool true
      in
      [ Combuild.iface i_session [ ("open_session", open_session); ("authorized", authorized) ] ])

let logic_class name =
  Runtime.define_class name ~creates:[ "Benefits.RecordSet" ] (fun _ctx _self ->
      let db = ref None in
      let init ctx args =
        db := Some (Combuild.get_iface args 0);
        chg ctx 10.;
        Value.Unit
      in
      let fetch ctx args =
        let entity = Combuild.get_str args 0 in
        let key = Combuild.get_int args 1 in
        let d = Option.get !db in
        let raw =
          Common.call_ret_blob ctx d sql_exec
            [ Value.Str (Printf.sprintf "SELECT * FROM %s WHERE id=%d" entity key) ]
        in
        (* Shape the raw ODBC rows into a business-rule-filtered record
           set (smaller than the raw rows). *)
        let rs = Common.create ctx c_recordset Common.i_blob_sink in
        let shaped = min (rows_per_fetch * row_bytes) (raw * 2 / 3) in
        ignore (Runtime.call_slot ctx rs Common.blob_sink_put [ Value.Blob shaped ]);
        ignore (Common.call_ret_int ctx rs Common.blob_sink_finish []);
        let rsq = Runtime.query_interface ctx rs ~iid:(Itype.iid i_recordset) in
        chg ctx (120. +. (float_of_int raw /. 500.));
        Value.Iface_ref rsq
      in
      let update ctx args =
        let entity = Combuild.get_str args 0 in
        let record = Combuild.get_blob args 1 in
        let d = Option.get !db in
        ignore
          (Common.call_ret_int ctx d sql_exec_update
             [ Value.Str (Printf.sprintf "UPDATE %s SET ... /* %d bytes */" entity record) ]);
        chg ctx 140.;
        Value.Int 1
      in
      let remove ctx args =
        let entity = Combuild.get_str args 0 in
        let key = Combuild.get_int args 1 in
        let d = Option.get !db in
        (* Referential integrity: several dependent tables. *)
        List.iter
          (fun dep ->
            ignore
              (Common.call_ret_blob ctx d sql_exec
                 [ Value.Str (Printf.sprintf "SELECT id FROM %s WHERE emp=%d" dep key) ]))
          [ "dependents"; "benefit_links"; "history" ];
        ignore
          (Common.call_ret_int ctx d sql_exec_update
             [ Value.Str (Printf.sprintf "DELETE FROM %s WHERE id=%d" entity key) ]);
        chg ctx 200.;
        Value.Int 1
      in
      [
        Combuild.iface i_logic
          [ ("init", init); ("fetch", fetch); ("update", update); ("remove", remove) ];
      ])

let c_employee_logic = logic_class "Benefits.EmployeeLogic"
let c_benefits_logic = logic_class "Benefits.BenefitsLogic"
let c_dependent_logic = logic_class "Benefits.DependentLogic"
let c_report_logic_inner = logic_class "Benefits.HistoryLogic"

let c_validation =
  Runtime.define_class "Benefits.ValidationRules" (fun _ctx _self ->
      let db = ref None in
      let init ctx args =
        db := Some (Combuild.get_iface args 0);
        chg ctx 8.;
        Value.Unit
      in
      let validate ctx args =
        let record = Combuild.get_blob args 0 in
        let d = Option.get !db in
        (* Integrity probes against the database. *)
        List.iter
          (fun probe ->
            ignore (Common.call_ret_blob ctx d sql_exec
                      [ Value.Str ("SELECT 1 /* " ^ probe ^ " */") ]))
          [ "ssn-unique"; "plan-exists"; "dept-exists"; "salary-band"; "start-date" ];
        chg ctx (80. +. (float_of_int record /. 100.));
        Value.Int 0
      in
      [ Combuild.iface i_validation [ ("init", init); ("validate", validate) ] ])

(* A cached row materialized beside the cache. *)
let c_cached_row =
  Runtime.define_class "Benefits.CachedRow" (fun _ctx _self ->
      let put ctx _args =
        chg ctx 3.;
        Value.Unit
      in
      let finish ctx _args =
        chg ctx 2.;
        Value.Int 0
      in
      [ Combuild.iface Common.i_blob_sink [ ("put", put); ("finish", finish) ] ])

let cache_class name =
  Runtime.define_class name ~creates:[ "Benefits.CachedRow" ] (fun _ctx _self ->
      let logic = ref None in
      let entity = ref "" in
      let filled = ref false in
      let init ctx args =
        logic := Some (Combuild.get_iface args 0);
        entity := Combuild.get_str args 1;
        chg ctx 8.;
        Value.Unit
      in
      let refresh ctx args =
        let key = Combuild.get_int args 0 in
        let l = Option.get !logic in
        (match Runtime.call_slot ctx l logic_fetch [ Value.Str !entity; Value.Int key ] with
        | Value.Iface_ref rs ->
            let n = Common.call_ret_int ctx rs recordset_row_count [] in
            ignore (Common.call_ret_blob ctx rs recordset_rows [ Value.Int 0; Value.Int n ]);
            (* Materialize rows beside the cache for fast lookups. *)
            for _ = 1 to n do
              let row = Common.create ctx c_cached_row Common.i_blob_sink in
              ignore (Runtime.call_slot ctx row Common.blob_sink_put [ Value.Blob row_bytes ])
            done;
            filled := true
        | _ -> ());
        chg ctx 60.;
        Value.Int (if !filled then 1 else 0)
      in
      let lookup ctx args =
        let key = Combuild.get_str args 0 in
        if not !filled then ignore (refresh ctx [ Value.Int 0 ]);
        chg ctx 6.;
        Value.Str ("value-of:" ^ key ^ ";plan=standard;status=active")
      in
      let invalidate_all ctx _args =
        filled := false;
        chg ctx 4.;
        Value.Unit
      in
      [
        Combuild.iface i_cache
          [
            ("init", init); ("lookup", lookup); ("refresh", refresh);
            ("invalidate_all", invalidate_all);
          ];
      ])

let c_employee_cache = cache_class "Benefits.EmployeeCache"
let c_benefit_cache = cache_class "Benefits.BenefitListCache"
let c_lookup_cache = cache_class "Benefits.LookupCache"
let c_dependent_cache = cache_class "Benefits.DependentCache"

let c_report_logic =
  Runtime.define_class "Benefits.ReportLogic" (fun _ctx _self ->
      let logic = ref None in
      let init ctx args =
        logic := Some (Combuild.get_iface args 0);
        chg ctx 8.;
        Value.Unit
      in
      let build ctx _args =
        let l = Option.get !logic in
        (* Aggregate across many employees. *)
        for key = 1 to 8 do
          match Runtime.call_slot ctx l logic_fetch [ Value.Str "history"; Value.Int key ] with
          | Value.Iface_ref rs ->
              let n = Common.call_ret_int ctx rs recordset_row_count [] in
              ignore (Common.call_ret_blob ctx rs recordset_rows [ Value.Int 0; Value.Int n ])
          | _ -> ()
        done;
        chg ctx 400.;
        Value.Blob 60_000
      in
      [ Combuild.iface i_report [ ("init", init); ("build", build) ] ])

(* ---------------------------------------------------------------- *)
(* Application root (the VB front end's glue)                        *)
(* ---------------------------------------------------------------- *)

let c_app =
  Runtime.define_class "Benefits.App" ~api_refs:Widgets.gui_apis
    ~creates:
      (Widgets.class_names kit
      @ [
          "Benefits.LoginForm"; "Benefits.EmployeeForm"; "Benefits.ReportForm";
          "Benefits.GraphControl"; "Benefits.OdbcGateway"; "Benefits.EmployeeLogic";
          "Benefits.BenefitsLogic"; "Benefits.DependentLogic"; "Benefits.HistoryLogic";
          "Benefits.EmployeeCache"; "Benefits.BenefitListCache"; "Benefits.LookupCache";
          "Benefits.DependentCache"; "Benefits.ValidationRules"; "Benefits.AuditLog";
          "Benefits.SessionMgr"; "Benefits.ReportLogic";
        ])
    (fun _ctx _self ->
      let chrome = ref None in
      let caches = ref [] in
      let logics = ref [] in
      let validation = ref None in
      let report = ref None in
      let forms = ref [] in
      let audit = ref None in
      let session = ref None in
      let startup ctx _args =
        let c = Widgets.build_chrome ctx kit ~buttons:10 ~menus:4 ~extras:2 in
        chrome := Some c;
        let attach_form cls =
          let f = Common.create ctx cls Common.i_control in
          ignore
            (Runtime.call_slot ctx f Common.control_attach
               [ Value.Iface_ref c.Widgets.window_notify ]);
          let fp = Runtime.query_interface ctx f ~iid:(Itype.iid Common.i_paint) in
          ignore
            (Runtime.call_slot ctx c.Widgets.window_render Common.render_attach_surface
               [ Value.Iface_ref fp ]);
          f
        in
        forms := List.map attach_form [ c_login_form; c_employee_form; c_report_form ];
        (* Middle tier boot: one ODBC gateway, the business logic, the
           caches that front it. *)
        let db = Common.create ctx c_odbc i_sql in
        let make_logic cls =
          let l = Common.create ctx cls i_logic in
          ignore (Runtime.call_slot ctx l logic_init [ Value.Iface_ref db ]);
          l
        in
        let employee = make_logic c_employee_logic in
        let benefits = make_logic c_benefits_logic in
        let dependent = make_logic c_dependent_logic in
        let history = make_logic c_report_logic_inner in
        logics := [ employee; benefits; dependent; history ];
        let make_cache cls logic entity =
          let cache = Common.create ctx cls i_cache in
          ignore
            (Runtime.call_slot ctx cache cache_init [ Value.Iface_ref logic; Value.Str entity ]);
          cache
        in
        caches :=
          [
            make_cache c_employee_cache employee "employees";
            make_cache c_benefit_cache benefits "benefits";
            make_cache c_lookup_cache benefits "lookups";
            make_cache c_dependent_cache dependent "dependents";
          ];
        let v = Common.create ctx c_validation i_validation in
        ignore (Runtime.call_slot ctx v validation_init [ Value.Iface_ref db ]);
        validation := Some v;
        let a = Common.create ctx c_audit_log i_audit in
        let a_init = Runtime.query_interface ctx a ~iid:(Itype.iid i_validation) in
        ignore (Runtime.call_slot ctx a_init validation_init [ Value.Iface_ref db ]);
        audit := Some a;
        session := Some (Common.create ctx c_session_mgr i_session);
        let r = Common.create ctx c_report_logic i_report in
        ignore (Runtime.call_slot ctx r report_init [ Value.Iface_ref history ]);
        report := Some r;
        chg ctx 600.;
        Value.Unit
      in
      let login ctx args =
        let user = Combuild.get_str args 0 in
        (match !session with
        | Some s ->
            ignore (Common.call_ret_str ctx s session_open_session [ Value.Str user ]);
            ignore (Runtime.call_slot ctx s session_authorized [ Value.Str "login" ])
        | None -> ());
        (match !caches with
        | c :: _ -> ignore (Common.call_ret_str ctx c cache_lookup [ Value.Str "login-role" ])
        | [] -> ());
        chg ctx 80.;
        Value.Bool true
      in
      let view_employee ctx args =
        let id = Combuild.get_int args 0 in
        (* Prime the caches for this employee, then the form issues a
           storm of small field lookups. *)
        List.iter
          (fun cache -> ignore (Common.call_ret_int ctx cache cache_refresh [ Value.Int id ]))
          !caches;
        let ncaches = List.length !caches in
        for q = 0 to queries_per_view - 1 do
          let cache = List.nth !caches (q mod ncaches) in
          ignore
            (Common.call_ret_str ctx cache cache_lookup
               [ Value.Str (Printf.sprintf "emp%d-field%d" id q) ])
        done;
        (match !forms with
        | _ :: emp_form :: _ ->
            ignore
              (Runtime.call_slot ctx emp_form Common.control_set_label [ Value.Str "Employee" ])
        | _ -> ());
        chg ctx 250.;
        Value.Unit
      in
      let add_employee ctx args =
        let record = Combuild.get_blob args 0 in
        (match !audit with
        | Some a ->
            ignore (Runtime.call_slot ctx a audit_append [ Value.Str "add"; Value.Blob 128 ])
        | None -> ());
        (match !validation with
        | Some v ->
            ignore (Common.call_ret_int ctx v validation_validate [ Value.Blob record ])
        | None -> ());
        (match !logics with
        | employee :: _ ->
            ignore
              (Common.call_ret_int ctx employee logic_update
                 [ Value.Str "employees"; Value.Blob record ])
        | [] -> ());
        List.iter
          (fun cache -> ignore (Runtime.call_slot ctx cache cache_invalidate_all []))
          !caches;
        chg ctx 200.;
        Value.Unit
      in
      let delete_employee ctx args =
        let id = Combuild.get_int args 0 in
        (match !audit with
        | Some a ->
            ignore (Runtime.call_slot ctx a audit_append [ Value.Str "delete"; Value.Blob 64 ])
        | None -> ());
        (match !logics with
        | employee :: _ ->
            ignore (Common.call_ret_int ctx employee logic_remove
                      [ Value.Str "employees"; Value.Int id ])
        | [] -> ());
        List.iter
          (fun cache -> ignore (Runtime.call_slot ctx cache cache_invalidate_all []))
          !caches;
        chg ctx 150.;
        Value.Unit
      in
      let run_report ctx _args =
        (match !report with
        | Some r ->
            let data =
              Common.call_ret_blob ctx r report_build [ Value.Str "benefits-by-dept" ]
            in
            let graph = Common.create ctx c_graph Common.i_blob_sink in
            ignore (Runtime.call_slot ctx graph Common.blob_sink_put [ Value.Blob data ]);
            ignore (Common.call_ret_int ctx graph Common.blob_sink_finish []);
            let gp = Runtime.query_interface ctx graph ~iid:(Itype.iid Common.i_paint) in
            (match !chrome with
            | Some c ->
                ignore
                  (Runtime.call_slot ctx c.Widgets.window_render Common.render_attach_surface
                     [ Value.Iface_ref gp ])
            | None -> ())
        | None -> ());
        chg ctx 300.;
        Value.Unit
      in
      let repaint ctx _args =
        (match !chrome with
        | Some c ->
            List.iter
              (fun p ->
                ignore (Runtime.call_slot ctx p Common.paint_paint [ Value.Opaque_handle "HDC" ]))
              c.Widgets.paints
        | None -> ());
        chg ctx 50.;
        Value.Unit
      in
      let shutdown ctx _args =
        chg ctx 120.;
        Value.Unit
      in
      [
        Combuild.iface i_ben_app
          [
            ("startup", startup); ("login", login); ("view_employee", view_employee);
            ("add_employee", add_employee); ("delete_employee", delete_employee);
            ("run_report", run_report); ("repaint", repaint); ("shutdown", shutdown);
          ];
      ])

(* ---------------------------------------------------------------- *)
(* Scenarios (Table 1, the b_ rows)                                  *)
(* ---------------------------------------------------------------- *)

let boot ctx =
  let app = Common.create ctx c_app i_ben_app in
  ignore (Runtime.call_slot ctx app ben_app_startup []);
  ignore (Runtime.call_slot ctx app ben_app_login [ Value.Str "hradmin" ]);
  app

let scenario_view ctx =
  let app = boot ctx in
  List.iter
    (fun id -> ignore (Runtime.call_slot ctx app ben_app_view_employee [ Value.Int id ]))
    [ 17; 17; 23 ];
  ignore (Runtime.call_slot ctx app ben_app_run_report []);
  ignore (Runtime.call_slot ctx app ben_app_repaint []);
  ignore (Runtime.call_slot ctx app ben_app_shutdown [])

let scenario_add ctx =
  let app = boot ctx in
  ignore (Runtime.call_slot ctx app ben_app_add_employee [ Value.Blob 2_400 ]);
  ignore (Runtime.call_slot ctx app ben_app_view_employee [ Value.Int 99 ]);
  ignore (Runtime.call_slot ctx app ben_app_repaint []);
  ignore (Runtime.call_slot ctx app ben_app_shutdown [])

let scenario_delete ctx =
  let app = boot ctx in
  ignore (Runtime.call_slot ctx app ben_app_view_employee [ Value.Int 17 ]);
  ignore (Runtime.call_slot ctx app ben_app_delete_employee [ Value.Int 17 ]);
  ignore (Runtime.call_slot ctx app ben_app_view_employee [ Value.Int 23 ]);
  ignore (Runtime.call_slot ctx app ben_app_repaint []);
  ignore (Runtime.call_slot ctx app ben_app_shutdown [])

let sc id desc run = { App.sc_id = id; sc_desc = desc; sc_bigone = false; sc_run = run }

let scenarios =
  [
    sc "b_vueone" "View records for an employee." scenario_view;
    sc "b_addone" "Add new employee." scenario_add;
    sc "b_delone" "Delete employee." scenario_delete;
    {
      App.sc_id = "b_bigone";
      sc_desc = "All of the above in one scenario.";
      sc_bigone = true;
      sc_run =
        (fun ctx ->
          scenario_view ctx;
          scenario_add ctx;
          scenario_delete ctx);
    };
  ]

let middle_tier_classes =
  [
    "Benefits.OdbcGateway"; "Benefits.RecordSet"; "Benefits.EmployeeLogic";
    "Benefits.BenefitsLogic"; "Benefits.DependentLogic"; "Benefits.HistoryLogic";
    "Benefits.ValidationRules"; "Benefits.CachedRow"; "Benefits.EmployeeCache";
    "Benefits.BenefitListCache"; "Benefits.LookupCache"; "Benefits.DependentCache";
    "Benefits.ReportLogic"; "Benefits.AuditLog"; "Benefits.SessionMgr";
  ]

let classes =
  Widgets.classes kit
  @ [
      c_login_form; c_employee_form; c_report_form; c_graph; c_odbc; c_recordset;
      c_employee_logic; c_benefits_logic; c_dependent_logic; c_report_logic_inner;
      c_validation; c_audit_log; c_session_mgr; c_cached_row; c_employee_cache;
      c_benefit_cache; c_lookup_cache; c_dependent_cache; c_report_logic; c_app;
    ]

let app =
  App.make ~name:"benefits" ~roots:[ "Benefits.App" ] ~classes
    ~default_placement:(fun cname ->
      if List.mem cname middle_tier_classes then Coign_core.Constraints.Server
      else Coign_core.Constraints.Client)
    ~scenarios

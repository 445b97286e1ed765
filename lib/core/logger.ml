type t = Event.t Coign_obs.Sink.t

let profiling ~icc ~inst_comm = function
  | Event.Interface_call
      { caller; caller_classification; callee; callee_classification; iface; meth = _;
        remotable; request_bytes; reply_bytes } ->
      Icc.record icc ~src:caller_classification ~dst:callee_classification ~iface ~remotable
        ~request:request_bytes ~reply:reply_bytes;
      Inst_comm.record inst_comm ~src:caller ~dst:callee ~bytes:request_bytes;
      Inst_comm.record inst_comm ~src:callee ~dst:caller ~bytes:reply_bytes
  | Event.Component_instantiated _ | Event.Component_destroyed _
  | Event.Interface_instantiated _ | Event.Interface_destroyed _
  | Event.Call_retried _ | Event.Instantiation_degraded _ | Event.Breaker_opened _
  | Event.Breaker_closed _ | Event.Failover _ | Event.Failback _
  | Event.Instance_migrated _ | Event.Drift_detected _ | Event.Repartitioned _
  | Event.Replica_promoted _ | Event.Shard_split _ | Event.Pool_resized _ ->
      ()

let tally () =
  let counts : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let log e =
    let k = Event.kind_name e in
    match Hashtbl.find_opt counts k with
    | Some r -> incr r
    | None -> Hashtbl.add counts k (ref 1)
  in
  (log, fun () -> Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counts [] |> List.sort compare)

let to_channel oc e =
  output_string oc (Event.to_line e);
  output_char oc '\n'

open Coign_idl
open Coign_com

type sizes = { request_bytes : int; reply_bytes : int; remotable : bool }

let non_remotable = { request_bytes = 0; reply_bytes = 0; remotable = false }

(* Lockstep walk over the compiled parameter programs and one value
   list: [ins] and [outs] each carry one slot per parameter (the RTE
   builds them from the same signature), so indexing with [List.nth]
   would be a quadratic re-scan on wide methods. One walk per
   direction returning a plain int, and the [_exn] sizing walks, keep
   the per-call success path down to the result record. *)
let carries_request = function Idl_type.In | Idl_type.In_out -> true | Idl_type.Out -> false
let carries_reply = function Idl_type.Out | Idl_type.In_out -> true | Idl_type.In -> false

let rec direction_size carries acc ps vs =
  match (ps, vs) with
  | [], _ -> acc
  | (dir, proc) :: ps', v :: vs' ->
      direction_size carries (if carries dir then acc + Midl.size_with_exn proc v else acc) ps' vs'
  | _ :: _, [] -> invalid_arg "Informer.measure_call: parameter arity mismatch"

let measure_call itype ~meth ~ins ~outs ~ret =
  let procs = Itype.procs itype meth in
  if not procs.Midl.remotable then non_remotable
  else
    match
      let request = direction_size carries_request 0 procs.Midl.request_procs ins in
      let reply = direction_size carries_reply 0 procs.Midl.request_procs outs in
      let reply = reply + Midl.size_with_exn procs.Midl.ret_proc ret in
      {
        request_bytes = Marshal_size.scalar_overhead + request;
        reply_bytes = Marshal_size.scalar_overhead + reply;
        remotable = true;
      }
    with
    | sizes -> sizes
    | exception Marshal_size.Err _ -> non_remotable

let outgoing_handles itype ~meth ~outs ~ret =
  let procs = Itype.procs itype meth in
  let from_params =
    List.concat
      (List.mapi
         (fun i iproc ->
           if Midl.iface_walk_trivial iproc then []
           else
             match List.nth_opt procs.Midl.request_procs i with
             | Some ((Idl_type.Out | Idl_type.In_out), _) ->
                 Midl.handles_with iproc (List.nth outs i)
             | Some (Idl_type.In, _) | None -> [])
         procs.Midl.iface_procs)
  in
  if Midl.iface_walk_trivial procs.Midl.ret_iface_proc then from_params
  else from_params @ Midl.handles_with procs.Midl.ret_iface_proc ret

let incoming_handles itype ~meth ~ins =
  let procs = Itype.procs itype meth in
  List.concat
    (List.mapi
       (fun i iproc ->
         if Midl.iface_walk_trivial iproc then []
         else
           match List.nth_opt procs.Midl.request_procs i with
           | Some ((Idl_type.In | Idl_type.In_out), _) ->
               Midl.handles_with iproc (List.nth ins i)
           | Some (Idl_type.Out, _) | None -> [])
       procs.Midl.iface_procs)

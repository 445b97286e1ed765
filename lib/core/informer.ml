open Coign_idl
open Coign_com

(* Both sizes in one immediate int, so measuring a call allocates
   nothing: the request in the high bits, the reply in the low 31. *)
type sizes = int

let reply_bits = 31
let reply_mask = (1 lsl reply_bits) - 1
let non_remotable = -1
let remotable s = s >= 0
let request_bytes s = if s < 0 then 0 else s lsr reply_bits
let reply_bytes s = if s < 0 then 0 else s land reply_mask

let sizes ~request ~reply =
  if reply > reply_mask || request > max_int lsr reply_bits then
    invalid_arg "Informer.measure_call: message too large";
  (request lsl reply_bits) lor reply

(* Lockstep walk over the declared parameters and one value list:
   [ins] and [outs] each carry one slot per parameter (the RTE builds
   them from the same signature), so indexing with [List.nth] would be
   a quadratic re-scan on wide methods. One walk per direction
   returning a plain int, and the [_exn] size walk, keep the per-call
   success path allocation-free. *)
let carries_request = function Idl_type.In | Idl_type.In_out -> true | Idl_type.Out -> false
let carries_reply = function Idl_type.Out | Idl_type.In_out -> true | Idl_type.In -> false

let rec direction_size carries acc (ps : Idl_type.param list) vs =
  match (ps, vs) with
  | [], _ -> acc
  | p :: ps', v :: vs' ->
      direction_size carries
        (if carries p.pdir then acc + Marshal_size.value_size_exn p.pty v else acc)
        ps' vs'
  | _ :: _, [] -> invalid_arg "Informer.measure_call: parameter arity mismatch"

let measure_call itype ~meth ~ins ~outs ~ret =
  if not (Itype.procs itype meth).Midl.remotable then non_remotable
  else
    let msig = Itype.method_sig itype meth in
    match
      let request = direction_size carries_request 0 msig.params ins in
      let reply = direction_size carries_reply 0 msig.params outs in
      let reply = reply + Marshal_size.value_size_exn msig.ret ret in
      sizes ~request:(Marshal_size.scalar_overhead + request)
        ~reply:(Marshal_size.scalar_overhead + reply)
    with
    | sizes -> sizes
    | exception Marshal_size.Err _ -> non_remotable

(* One slot per parameter, walked in lockstep with its pruned
   interface walk, for the handles [f] sees; the mapped slots are
   dropped, as a caller reads only the return value. *)
let rec iter_slots iprocs f env vs =
  match (iprocs, vs) with
  | [], _ | _, [] -> ()
  | iproc :: iprocs', v :: vs' ->
      ignore (Midl.map_handles_with iproc f env v : Value.t);
      iter_slots iprocs' f env vs'

let map_handles itype ~meth f env ~outs ret =
  let procs = Itype.procs itype meth in
  (* The return value first, then the slots left to right: the order
     handles have always been minted in. *)
  let ret' = Midl.map_handles_with procs.Midl.ret_iface_proc f env ret in
  iter_slots procs.Midl.iface_procs f env outs;
  ret'

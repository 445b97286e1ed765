open Coign_util

type run = {
  classification_of : int -> int;
  comm : Inst_comm.t;
  run_instances : int list;
}

type price = count:int -> bytes:int -> float

(* [inst]'s vector, its peers read from [peers] (an index of
   [run.comm]). *)
let vector run ~dims ~price peers inst =
  let v = Array.make (dims + 1) 0. in
  List.iter
    (fun (peer, count, bytes) ->
      let c = run.classification_of peer in
      let slot = if c >= 0 && c < dims then c else dims in
      v.(slot) <- v.(slot) +. price ~count ~bytes)
    (peers inst);
  v

let instance_vector run ~dims ~price inst =
  vector run ~dims ~price (Inst_comm.peers run.comm) inst

let classification_profiles ~runs ~dims ~price =
  let sums : (int, float array * int ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun run ->
      let peers = Inst_comm.peers run.comm in
      List.iter
        (fun inst ->
          let c = run.classification_of inst in
          if c >= 0 then begin
            let v = vector run ~dims ~price peers inst in
            match Hashtbl.find_opt sums c with
            | None -> Hashtbl.add sums c (v, ref 1)
            | Some (acc, n) ->
                Array.iteri (fun i x -> acc.(i) <- acc.(i) +. x) v;
                incr n
          end)
        run.run_instances)
    runs;
  let profiles = Hashtbl.create 256 in
  Hashtbl.iter
    (fun c (acc, n) ->
      Hashtbl.add profiles c (Array.map (fun x -> x /. float_of_int !n) acc))
    sums;
  profiles

let correlation = Stats.cosine_correlation

let average_correlation ~profiles ~test ~dims ~price =
  let peers = Inst_comm.peers test.comm in
  let total = ref 0. and n = ref 0 in
  List.iter
    (fun inst ->
      let c = test.classification_of inst in
      incr n;
      match Hashtbl.find_opt profiles c with
      | None -> () (* unseen classification: correlation 0 *)
      | Some profile ->
          let v = vector test ~dims ~price peers inst in
          total := !total +. correlation profile v)
    test.run_instances;
  if !n = 0 then 1. else !total /. float_of_int !n

module Metrics = Coign_obs.Metrics

type policy =
  | By_classification of Analysis.distribution
  | By_class of (string -> Constraints.location)
  | All_client

type t = {
  mutable policy : policy;
  mutable machines : Constraints.location option array; (* by instance id *)
  mutable local : int;
  mutable forwarded : int;
}

let create policy = { policy; machines = Array.make 64 None; local = 0; forwarded = 0 }

let decide t ~classification ~cname ~creator_machine =
  let target =
    match t.policy with
    | All_client -> Constraints.Client
    | By_class f -> f cname
    | By_classification d -> Analysis.location_of d classification
  in
  if target = creator_machine then t.local <- t.local + 1 else t.forwarded <- t.forwarded + 1;
  target

let policy t = t.policy

(* Atomic placement-map switch for the resilience layer: instantiation
   requests decided after this call follow the new policy; already-
   placed instances keep their recorded machine until re-recorded. *)
let set_policy t policy = t.policy <- policy

(* The two recorded values, built once: recording allocates no [Some]. *)
let on_client = Some Constraints.Client
let on_server = Some Constraints.Server

let record_instance t ~inst loc =
  if inst < 0 then invalid_arg "Factory.record_instance: negative instance";
  if inst >= Array.length t.machines then begin
    let bigger = Array.make (max (inst + 1) (2 * Array.length t.machines)) None in
    Array.blit t.machines 0 bigger 0 (Array.length t.machines);
    t.machines <- bigger
  end;
  t.machines.(inst) <- (match loc with Constraints.Client -> on_client | Server -> on_server)

let machine_of t inst =
  if inst < 0 || inst >= Array.length t.machines then Constraints.Client
  else match t.machines.(inst) with Some loc -> loc | None -> Constraints.Client

(* Recorded instances satisfying [keep], ascending. *)
let collect t keep =
  let acc = ref [] in
  for inst = Array.length t.machines - 1 downto 0 do
    match t.machines.(inst) with
    | Some loc -> ( match keep inst loc with Some x -> acc := x :: !acc | None -> ())
    | None -> ()
  done;
  !acc

let instances t = collect t (fun inst loc -> Some (inst, loc))
let instances_on t loc = collect t (fun inst l -> if l = loc then Some inst else None)

let forwarded_requests t = t.forwarded

let publish t reg =
  let requests kind n =
    Metrics.inc_int
      (Metrics.counter reg ~help:"Instantiation requests decided by the factory, by outcome."
         ~labels:[ ("kind", kind) ] "coign_factory_requests_total")
      n
  in
  requests "local" t.local;
  requests "forwarded" t.forwarded

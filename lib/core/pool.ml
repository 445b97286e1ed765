open Coign_util

type shape = { sh_hosts : int; sh_replicas : int }

let shape ?replicas hosts =
  if hosts < 1 then invalid_arg "Pool.shape: hosts < 1";
  let sh_replicas = match replicas with Some r -> r | None -> min 2 hosts in
  if sh_replicas < 1 || sh_replicas > hosts then
    invalid_arg "Pool.shape: replicas outside [1, hosts]";
  { sh_hosts = hosts; sh_replicas }

(* Stable keyed hash: the splitmix64 finalizer over the key, folded to
   a non-negative int. Pure, so a shard reused across pool
   instantiations can never drift. *)
let hash_key c = Int64.to_int (Prng.mix64 (Int64.of_int c)) land max_int

let shard_of ~shards c = hash_key c mod shards

let shard_in table c = if c >= 0 && c < Array.length table && table.(c) >= 0 then table.(c) else 0

let host_of shape shard = shard mod shape.sh_hosts

(* A top-level loop, so a walk builds no closure of its own. *)
let rec walk shape shard ~except ~admits i =
  if i >= shape.sh_replicas then -1
  else
    let h = (host_of shape shard + i) mod shape.sh_hosts in
    if h <> except && admits h then h else walk shape shard ~except ~admits (i + 1)

let first_replica shape shard ~except ~admits = walk shape shard ~except ~admits 0

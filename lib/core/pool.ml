open Coign_util

type shard_map = Hash of int | Range of int array

type shape = { sh_hosts : int; sh_replicas : int; sh_map : shard_map }

let shard_count = function
  | Hash k -> k
  | Range bounds -> Array.length bounds + 1

let check_map = function
  | Hash k -> if k < 1 then invalid_arg "Pool.shape: Hash shard count < 1"
  | Range bounds ->
      Array.iteri
        (fun i b ->
          if i > 0 && b <= bounds.(i - 1) then
            invalid_arg "Pool.shape: Range bounds not strictly increasing")
        bounds

let shape ?replicas ?map hosts =
  if hosts < 1 then invalid_arg "Pool.shape: hosts < 1";
  let sh_map = match map with Some m -> m | None -> Hash hosts in
  check_map sh_map;
  let sh_replicas = match replicas with Some r -> r | None -> min 2 hosts in
  if sh_replicas < 1 || sh_replicas > hosts then
    invalid_arg "Pool.shape: replicas outside [1, hosts]";
  { sh_hosts = hosts; sh_replicas; sh_map }

(* Stable keyed hash: the splitmix64 finalizer over the key, folded to
   a non-negative int. Pure, so a shard map reused across pool
   instantiations can never drift. *)
let hash_key c = Int64.to_int (Prng.mix64 (Int64.of_int c)) land max_int

let shard_of map c =
  match map with
  | Hash k -> hash_key c mod k
  | Range bounds ->
      (* First bound strictly above [c]; past the last bound = last shard. *)
      let n = Array.length bounds in
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if c < bounds.(mid) then search lo mid else search (mid + 1) hi
      in
      search 0 n

let host_of shape shard = shard mod shape.sh_hosts

let replica_hosts shape shard =
  let primary = host_of shape shard in
  List.init shape.sh_replicas (fun i -> (primary + i) mod shape.sh_hosts)

(** Instance communication vectors and classifier-accuracy metrics
    (paper §4.2).

    An instance communication vector is a tuple of real numbers
    quantifying the instance's communication time with each peer —
    assuming the peer were remote. Because instance identities differ
    between executions, peers are bucketed by their classification:
    dimension [c] holds the communication time with all peers of
    classification [c] (plus one overflow dimension for unclassified
    peers such as the main program). Two vectors are compared with the
    normalized dot product: 1 means equivalent communication behaviour,
    0 means none shared. *)

type run = {
  classification_of : int -> int;
      (** instance -> classification in this run; -1 for main/unknown *)
  comm : Inst_comm.t;
  run_instances : int list;  (** instances created during the run *)
}

type price = count:int -> bytes:int -> float
(** Communication time attributed to [count] messages totalling
    [bytes], if the peer were remote (typically from a
    {!Coign_netsim.Net_profiler} fit). *)

val classification_profiles :
  runs:run list -> dims:int -> price:price -> (int, float array) Hashtbl.t
(** Mean vector per classification across all instances of that
    classification in the profiling runs — the "profile" a future
    instance is correlated against. Dimension [c < dims] is time with
    peers classified [c]; dimension [dims] (the array has [dims + 1]
    slots) collects peers with classification outside [0..dims-1]. *)

val average_correlation :
  profiles:(int, float array) Hashtbl.t -> test:run -> dims:int -> price:price -> float
(** Mean over the test run's instances of the correlation between each
    instance's vector and its classification's profile vector; an
    instance whose classification has no profile scores 0 (the
    classifier failed to correlate it). Instances that communicate
    nothing in both profile and test correlate at 1. *)

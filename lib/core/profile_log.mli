(** Profile log files (paper §2, §3.3).

    "At the end of a profiling execution, Coign writes the
    inter-component communication profiles to a file for later
    analysis. ... Log files from multiple profiling scenarios may be
    combined and summarized during later analysis. Alternatively, at
    the end of each profiling scenario, information from the log file
    may be combined into the configuration record in the application
    binary."

    {!Adps.profile} implements the second (config-record) path; this
    module implements the first: standalone log files carrying one
    run's classifier state and ICC summaries, which can be combined —
    even from profiling runs performed on different machines — and
    folded into an instrumented image before analysis. *)

type t = {
  pl_app : string;        (** application the run profiled *)
  pl_scenario : string;   (** scenario id (informational) *)
  pl_classifier : Classifier.t;
  pl_icc : Icc.t;
  pl_instances : int;     (** component instances created in the run *)
  pl_calls : int;         (** interface calls intercepted *)
}

val of_run : app:string -> scenario:string -> Rte.t -> t
(** Capture a finished profiling RTE's data. *)

val encode : t -> string

exception Decode_error of string
(** A malformed log; the message starts ["Profile_log.decode: "]. *)

val decode : string -> t
(** Raises {!Decode_error} on malformed input: a bad magic, truncated
    or trailing bytes, or a classifier or ICC section that fails to
    decode. *)

val save : t -> string -> unit
val load : string -> t
(** Reads and {!decode}s a log file. *)

val combine : t -> t -> t
(** Merge two logs of the same application. The logs must agree on the
    classifier kind and depth; classifications are reconciled by
    descriptor (the same instantiation context gets the same
    classification in the combined log, whichever run it came from).
    Raises [Invalid_argument] on mismatched applications or classifier
    configurations. *)

val combine_all : t list -> t
(** Left fold of {!combine}; raises [Invalid_argument] on an empty
    list. *)

val into_image :
  t -> Coign_image.Binary_image.t -> Coign_image.Binary_image.t
(** Fold a (possibly combined) log into an instrumented image's
    configuration record, merging with whatever the record already
    accumulated, so {!Adps.analyze} sees the union. *)

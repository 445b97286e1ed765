(** Component location constraints (paper §2, §4.3).

    Constraints come from three sources: the API references of
    component binaries (GUI classes to the client, storage classes to
    the server, {!of_image}), the programmer (absolute constraints
    forcing an instance to a machine, and pair-wise constraints forcing
    two classifications together — the mechanism that protects data
    integrity and security), and the system itself (the main program
    runs on the client; data files live on the server). The analysis
    engine compiles them, with the non-remotable pairs the profile
    observed, into infinite-capacity edges of the cut graph, so no
    chosen distribution can ever violate one. The static interface-flow
    analysis ({!Interface_flow}) is not a source: its class pairs are
    lint findings. *)

type location = Client | Server

val location_name : location -> string

type t

val empty : t

val pin_class : t -> cname:string -> location -> t
(** Every classification of the named component class is pinned. *)

val pin_classification : t -> int -> location -> t

val colocate : t -> int -> int -> t
(** Pair-wise constraint between two classifications. *)

val of_image : Coign_image.Binary_image.t -> t
(** Class pins derived by static analysis ({!Static_analysis}). *)

val merge : t -> t -> t
(** Union; conflicting pins raise [Invalid_argument] eagerly when both
    sides pin the same class or classification to different
    machines. *)

val class_pin : t -> cname:string -> location option
val colocated_pairs : t -> (int * int) list
val pinned_classes : t -> (string * location) list
val pinned_classifications : t -> (int * location) list

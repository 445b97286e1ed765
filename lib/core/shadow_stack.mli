(** Distributed, thread-local stack storage (paper §3.1).

    The RTE keeps contextual information across interface calls in its
    own shadow stack: each intercepted call pushes a {!Frame.t} and
    pops it on return. Instance classifiers walk this stack — it is the
    "stack back-trace (call chain)" of paper §3.4 — and the component
    factory reads its top to know on whose behalf an instantiation
    request is made. *)

type t

val create : unit -> t

val push : t -> Frame.t -> unit
val pop : t -> unit
(** Raises [Invalid_argument] on an empty stack (an unbalanced
    interception is a bug). *)

val top_or : t -> Frame.t -> Frame.t
(** [top_or t default] is the frame of the currently executing method,
    or [default] on an empty stack (the main program is running). The
    RTE reads it on every call, so it returns no option. *)

val nth : t -> int -> Frame.t
(** [nth t i] is the [i]th frame from the top (0 = the top), as
    {!walk} would list it. Raises [Invalid_argument] past the bottom. *)

val depth : t -> int

val walk : ?limit:int -> t -> Frame.t list
(** Frames from the most recent downward, at most [limit] of them
    (default: all). This is the classifier's stack walk; tuning [limit]
    trades accuracy for overhead (paper Table 3). *)

val clear : t -> unit

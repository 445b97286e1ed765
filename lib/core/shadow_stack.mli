(** Distributed, thread-local stack storage (paper §3.1).

    The RTE keeps contextual information across interface calls in its
    own shadow stack: each intercepted call pushes a frame and pops it
    on return. A frame is three ints: the callee instance, the
    classification that instance received when it was created, and the
    call site — the (class, interface, method) triple interned by the
    {!Classifier.memo} that reads the stack ({!Classifier.site}).
    Instance classifiers walk this stack — it is the "stack back-trace
    (call chain)" of paper §3.4 — and the component factory reads its
    top to know on whose behalf an instantiation request is made. *)

type t

val create : unit -> t

val push : t -> inst:int -> classification:int -> site:int -> unit

val pop : t -> unit
(** Raises [Invalid_argument] on an empty stack (an unbalanced
    interception is a bug). *)

val depth : t -> int

(** The fields of the [i]th frame from the top (0 = the currently
    executing method). Each raises [Invalid_argument] past the
    bottom. *)

val inst : t -> int -> int
val classification : t -> int -> int
val site : t -> int -> int

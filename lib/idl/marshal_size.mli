(** Deep-copy marshaled-size computation (the DCOM wire-size model).

    DCOM moves call parameters between machines by deep copy; the
    profiling informer measures "the number of bytes that would be
    transferred from one machine to another if the two communicating
    components were distributed" (paper §2). This module is that
    measurement: a type-directed walk of one value against its declared
    {!Idl_type.t}, following NDR-like encoding rules (fixed scalar
    widths, counted strings/arrays, pointer null-flags, fixed-size
    object references for interface pointers). The profiling informer
    ([Informer.measure_call]) sums it over a call's parameters by
    direction into request and reply byte counts. *)

type error =
  | Not_remotable of string
      (** The value contains an [Opaque] handle; DCOM cannot marshal the
          call (a non-distributable interface, shown as solid black
          lines in the paper's figures). *)
  | Type_mismatch of { expected : Idl_type.t; got : Value.t }

val pp_error : Format.formatter -> error -> unit

val scalar_overhead : int
(** Per-message DCOM/RPC header bytes added to every request and every
    reply. *)

val objref_size : int
(** Marshaled size of an interface pointer (an OBJREF). *)

exception Err of error
(** Exception form of {!error}, raised by the [_exn] walks. *)

val value_size : Idl_type.t -> Value.t -> (int, error) result
(** Deep-copy size of a single value against its declared type. *)

val value_size_exn : Idl_type.t -> Value.t -> int
(** {!value_size} returning a plain int and raising [Err] on failure.
    The success path allocates nothing — no result cells, closures or
    intermediate lists — so the profiling informer can size every
    intercepted call without touching the minor heap. *)

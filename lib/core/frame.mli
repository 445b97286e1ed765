(** One entry of the Coign shadow call stack.

    The RTE records, for every intercepted interface call, which
    instance was entered, its component class, the classification that
    instance received when it was created, and which interface/method
    carried the call. Instance classifiers read these frames to form
    their descriptors (paper Figure 3). *)

type t = {
  f_inst : int;            (** callee component instance *)
  f_class : string;        (** callee's component class name *)
  f_classification : int;  (** classification the callee instance got at
                               its own instantiation *)
  f_iface : string;        (** interface carrying the call *)
  f_meth : string;         (** method name *)
  f_site : int;
      (** call-site id of (class, interface, method), interned by a
          {!Classifier.memo}; -1 when the frame carries none *)
}

val make :
  inst:int -> cls:string -> classification:int -> iface:string -> meth:string -> t
(** A frame without a call-site id. *)

val make_site :
  site:int -> inst:int -> cls:string -> classification:int -> iface:string -> meth:string -> t
(** A frame carrying the call-site id [site], which must come from
    {!Classifier.site} on the memo that will classify against it. *)


(** One shadow-stack frame, spelled out for a classifier's descriptor.

    The RTE's {!Shadow_stack} holds a frame as three ints; the
    classifier expands them into this record only when it renders a
    descriptor (paper Figure 3): which instance was entered, its
    component class, the classification that instance received when
    it was created, and which interface/method carried the call. *)

type t = {
  f_inst : int;            (** callee component instance *)
  f_class : string;        (** callee's component class name *)
  f_classification : int;  (** classification the callee instance got at
                               its own instantiation *)
  f_iface : string;        (** interface carrying the call *)
  f_meth : string;         (** method name *)
}

val make :
  inst:int -> cls:string -> classification:int -> iface:string -> meth:string -> t

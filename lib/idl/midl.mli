(** Per-method interface metadata for the two informers.

    The profiling informer "uses format strings and interface marshaling
    code generated by the Microsoft IDL compiler" (paper §3.2). Here the
    declared {!Idl_type.t} plays the format string: the profiling
    informer sizes every parameter with {!Marshal_size.value_size_exn}
    over it directly. What this module adds is the distribution
    informer's side: a pruned copy of each declared type in which every
    subtree that cannot carry an interface pointer is cut to [Void], so
    the walk visits only the positions where interface pointers can
    occur — the "aggressive optimization of static interface metadata"
    that brings distribution-time overhead under 3% — plus the
    per-method facts both informers read on every call. *)

type iface_proc
(** A declared type pruned to the paths that reach an [Iface]. *)

val map_handles_with : iface_proc -> ('a -> int -> int) -> 'a -> Value.t -> Value.t
(** [map_handles_with p f env v] replaces each interface handle [h] at
    a position typed [Iface] by [f env h], in traversal order (fields
    and elements left to right) — how the RTE swaps in wrapped
    interface pointers on the way through an intercepted call.
    Unchanged subtrees are shared, and when every handle maps to itself
    the result is [v] itself: no allocation. *)

type method_procs = {
  iface_procs : iface_proc list;                     (** one per param *)
  ret_iface_proc : iface_proc;
  remotable : bool;
  may_output_ifaces : bool;
      (** the return value or an [Out]/[In_out] parameter can carry an
          interface pointer — whether the RTE must walk the reply to
          wrap escaping handles *)
}

val compile_method : Idl_type.method_sig -> method_procs
(** Prune every parameter of a method once; informers cache these per
    interface type. *)

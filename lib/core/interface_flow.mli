(** Whole-program static interface-flow analysis.

    Two components that can exchange an interface DCOM cannot marshal
    must share an address space (paper §2, §4). This module computes,
    from the image's static metadata ({!Coign_image.Image_meta}), which
    classes can ever hold an interface handle on which other classes,
    by propagating handles through instantiation, method returns,
    [Out] parameters and [In] parameters to a fixpoint.

    One COM subtlety is central: holding {e any} interface of an object
    allows obtaining {e all} of its interfaces via [QueryInterface], so
    reachability is tracked per class {e pair}, not per (class,
    interface) — a container that receives a child as [IControl] can
    still paint it through [IPaint].

    The result feeds the linter ({!Lint}, CG004 and CG006), not the
    cut: it is per class, and it over-approximates what runs, so as
    constraints it would tie classifications the profile shows never
    exchange a non-remotable interface. The cut takes its non-remotable
    pairs from the profile instead.

    The over-approximation holds as far as components honour their
    declared signatures: then every non-remotable pair the profiler can
    see is a static pair (or a client pin). A component that hands out
    a handle of another type than it declares escapes the analysis. Octarine's [IWidgetFactory.make] is declared
    to return [IControl] but returns a [MenuPane]'s [IContainer] for
    ["menupane"], and [MenuPane] implements no [IControl]; so the
    profiled non-remotable [IPaint] edge from [Octarine.App] to
    [Octarine.MenuPane] is neither a static pair nor a client pin. *)

type t

val analyze : Coign_image.Image_meta.t -> t

val method_ifaces : Coign_idl.Idl_type.method_sig -> string list
(** Interface names mentioned anywhere in a method signature (return,
    parameters, nested in structs/arrays/pointers). *)

val references : t -> (string * string) list
(** Directed: [(a, b)] iff code in class [a] can hold an interface
    handle on an instance of class [b]. ["MAIN"] denotes the main
    program. *)

val non_remotable_ifaces : t -> string list
(** Interfaces with at least one non-remotable method. *)

val non_remotable_pairs : t -> (string * string) list
(** Unordered (normalized [min, max]) class pairs that can exchange a
    non-remotable interface and therefore must be co-located. Pairs
    involving ["MAIN"] are reported via {!client_pins} instead. *)

val client_pins : t -> string list
(** Classes the main program itself can call through a non-remotable
    interface: they must stay on the client. *)

val unreachable_classes : t -> string list
(** Registered classes no interface handle can ever reach from the main
    program — creatable but dead weight in the image. *)

(** The binary rewriter.

    Performs the two modifications of paper §2 on an application image:
    inserts the Coign runtime into the first slot of the DLL import
    table (so it loads and runs before the application or any of its
    DLLs) and appends/updates the configuration record data segment.
    Also performs the post-analysis rewrite that strips the profiling
    instrumentation and installs the lightweight distribution
    runtime. *)

val is_instrumented : Binary_image.t -> bool
(** The runtime DLL ([coignrte.dll]) occupies the first import slot. *)

val instrument :
  ?classifier:string -> ?stack_depth:int option -> Binary_image.t -> Binary_image.t
(** Produce the profiling-instrumented image: runtime DLL first in the
    import table ([coignrte.dll]), config record in [Profiling] mode.
    Instrumenting an already-instrumented image just updates the
    config. Existing profile entries in the config record are
    preserved, so successive scenario runs accumulate. *)

val write_distribution :
  Binary_image.t -> entries:(string * string) list -> Binary_image.t
(** The post-analysis rewrite: keep the runtime in the import table,
    switch the config record to [Distributed] mode, drop accumulated
    raw profile entries, and store the analyzer's output entries (the
    "ICC graph and component classification data", §2). *)

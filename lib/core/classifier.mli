(** Instance classifiers (paper §3.4).

    A classifier identifies component instances with similar
    communication profiles across separate executions by grouping
    instances with similar instantiation histories. At every
    instantiation request it forms a descriptor from the about-to-be-
    instantiated class and (for the call-chain family) the shadow call
    stack; instances with equal descriptors share a classification.
    Classifications are the unit of distribution: the analysis engine
    maps classifications (not instances) to machines.

    All seven classifiers of the paper are provided; the call-chain
    family accepts a stack-walk depth limit (Table 3 explores the
    accuracy/overhead tradeoff). Classifier state — the descriptor
    table — persists across executions (it is written into the
    configuration record), which is how profiling-time classifications
    are correlated with instantiation requests during distributed
    execution. *)

type kind =
  | Incremental  (** straw man: Nth instantiation gets classification N *)
  | Pcb          (** procedure called-by: class + method-name chain *)
  | St           (** static type only *)
  | Stcb         (** static-type called-by: class + class chain *)
  | Ifcb         (** internal-function called-by: class +
                     (instance-classification, method) chain — the
                     classifier Coign actually uses *)
  | Epcb         (** entry-point called-by: like IFCB but only the frame
                     through which control entered each instance *)
  | Ib           (** instantiated-by: class + parent classification *)

val all_kinds : kind list

val kind_name : kind -> string
(** Short stable identifier, e.g. ["ifcb"]. *)

val kind_of_name : string -> kind option

val kind_description : kind -> string
(** The paper's row label, e.g. ["Internal-Func. Called-By"]. *)

type t

val create : ?stack_depth:int -> kind -> t
(** [stack_depth] limits how many frames of the shadow stack the
    descriptor uses (default: the complete stack). Ignored by
    [Incremental] and [St]. *)

val kind : t -> kind
val stack_depth : t -> int option

val descriptor : t -> cname:string -> stack:Frame.t list -> string
(** The descriptor an instantiation would receive, without recording
    it. [stack] is most-recent-first. Pure except for [Incremental], whose descriptor includes
    the would-be instantiation ordinal. *)

val classify : t -> cname:string -> stack:Frame.t list -> int
(** Assign (creating if needed) the classification for an instantiation
    with the given context, and count the instance against it.
    Classifications are dense non-negative integers, stable for the
    lifetime of the classifier state. *)

val lookup : t -> cname:string -> stack:Frame.t list -> int option
(** The classification this context would map to, or [None] if the
    descriptor has never been seen. Does not record anything. *)

val classification_count : t -> int

val instance_count : t -> int
(** Total instances classified (sum over classifications). *)

val instances_of : t -> int -> int
(** Instances recorded against one classification. *)

val descriptor_of_classification : t -> int -> string

val class_of_classification : t -> int -> string
(** Component class name the classification belongs to. *)

val freeze_counts : t -> unit
(** Stop counting instances (used when replaying a test scenario
    against profiled state to measure how many *new* classifications
    appear without polluting the profile counts). New descriptors still
    allocate fresh classifications. *)

val copy : t -> t
(** Independent copy of the classifier state. *)

val merge : t -> t -> t * int array
(** [merge a b] combines two classifier states of identical kind and
    depth (e.g. from profiling runs on different machines). The result
    preserves [a]'s classification ids; the returned array maps each of
    [b]'s ids to its id in the combined state. Instance counts add.
    Raises [Invalid_argument] on configuration mismatch. *)

val encode : t -> string

exception Decode_error of string
(** A malformed classifier state; the message starts
    ["Classifier.decode: "]. *)

val decode : string -> t
(** Round-trips classifier kind, depth, and the descriptor table. One
    pass over the text reads each field in place ({!Coign_util.Text_field}):
    only the kind line and each row's class and descriptor are copied,
    and each descriptor is hashed once. The order, counts and depth
    take [int_of_string]'s spellings too. Raises {!Decode_error} on an
    unknown kind, a depth below 1, a negative or non-numeric order or
    count, a row without exactly three fields, or a repeated
    descriptor. *)

(** {1 Interception memo}

    The RTE classifies every instantiation. Rendering the descriptor
    string each time costs a [sprintf] per frame plus a string hash,
    yet most instantiations repeat a context the run has already seen.
    A memo maps an int {e context key} — the class name plus, per frame
    inside the depth limit, the frame's classification, its call-site
    id and whether the next older frame belongs to the same instance —
    to the classification it got. Those are all the fields any
    descriptor reads, so a hit is exact; only a miss spells the stack
    out as {!Frame.t}s and renders the descriptor. *)

type memo

val memo : t -> memo
(** A fresh, empty memo over the classifier. One per RTE install: memos
    are independent, so domain-parallel runs stay deterministic. *)

val site : memo -> cls:string -> iface:string -> meth:string -> int
(** The memo's call-site id for a (class, interface, method) triple,
    interned on first use — what a {!Shadow_stack} frame carries. *)

val classify_memo : memo -> cname:string -> Shadow_stack.t -> int
(** Exactly [classify t ~cname ~stack] on the stack's frames spelled
    out most recent first — the same id, descriptor table, [counts] and
    ordinal — through the memo. Every site on the stack must come from
    {!site} on this memo. [Incremental], whose descriptor is the
    ordinal, always takes the descriptor path, with no frames. *)

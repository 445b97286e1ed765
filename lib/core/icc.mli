(** Inter-component communication (ICC) summaries.

    The profiling logger condenses every observed interface call into
    per-(source classification, target classification, interface)
    histograms over exponential message-size buckets (paper §3.3), so
    profile storage does not grow with execution time and stays
    network-independent. Request and reply are recorded as separate
    messages, preserving "number and size of messages". *)

type t

type entry = {
  src : int;            (** caller's classification; -1 = the main program *)
  dst : int;            (** callee's classification *)
  iface : string;
  remotable : bool;
  messages : Coign_util.Exp_bucket.t;
}

val create : unit -> t

val record :
  t -> src:int -> dst:int -> iface:string -> remotable:bool ->
  request:int -> reply:int -> unit
(** Record one call: two messages ([request] bytes toward [dst],
    [reply] bytes back). A call on a non-remotable interface marks the
    whole (src,dst,iface) entry non-remotable forever. Classification
    ids must lie in [\[-1, 2^20 - 2\]]. *)

type iface
(** An interface name interned in one summary: the profiling RTE
    interns each wrapper's interface once, so recording a call hashes
    one packed int instead of a (src, dst, name) record. *)

val intern : t -> string -> iface

val no_iface : iface
(** A placeholder no summary interns, for a wrapper that records into
    none; recording with it raises [Invalid_argument]. *)

val record_interned :
  t -> src:int -> dst:int -> iface -> remotable:bool -> request:int -> reply:int -> unit
(** {!record} for an interface interned in the same summary. *)

val entries : t -> entry list
(** Deterministic order (sorted by key). *)

val columns : t -> int array * int array * string array * bool array
(** Every entry's source, target, interface and remotability as four
    parallel arrays, in no fixed order, without building the entries:
    for readers whose result does not depend on the order (the
    verifier's model builder). *)

val call_count : t -> int
(** Total calls recorded (= messages / 2). *)

val total_bytes : t -> int

val merge : t -> t -> t
(** Combine profiles from multiple scenarios (paper: "log files from
    multiple profiling scenarios may be combined"). *)

val map_classifications : (int -> int) -> t -> t
(** Rewrite classification ids (e.g. with the remap from
    {!Classifier.merge}); the main program's [-1] is preserved. Entries
    that collide after mapping merge. *)

val encode : t -> string
(** The canonical text form: a ["calls N"] line, then one line per
    (entry, non-empty bucket) of seven tab-separated fields — source,
    target, interface, remotable flag (1/0), bucket index, message
    count, byte total — in {!entries} order and ascending bucket
    order, every line ending in a newline. *)

exception Decode_error of string
(** A malformed summary; the message starts ["Icc.decode: "]. *)

val scan :
  ?classifications:int ->
  string ->
  cell:(src:int -> dst:int -> remotable:bool -> int -> int -> unit) ->
  bucket:(index:int -> count:int -> bytes:int -> unit) ->
  int
(** The one validating reader of the canonical form, shared by
    {!decode} and {!Icc_graph.decode}. It reads the text once, in
    place: a numeric field's digits are summed in the pass that finds
    its end, and interfaces are compared where they lie. It calls
    [cell] at the first line of each (source, target, interface) cell
    — the interface name is the substring at the given offset and
    length — and [bucket] at every line, and returns the call count.
    It allocates nothing of its own on canonical text; a field that is
    not plain [\[-\]digits] gets [int_of_string]'s semantics, which
    copies it. It accepts what {!encode} writes, plus [int_of_string]
    spellings of its numbers ([0x20], [1_000], [+5]), which re-encode
    in canonical form. It raises {!Decode_error} on anything else: a
    missing ["calls"] line, a line without seven fields or final
    newline, a non-numeric or out-of-range id, bucket, count or byte
    total, a remotable flag other than 0/1 or one that changes within
    a cell, lines not strictly ascending by (source, target,
    interface, bucket) — which also rules out duplicates — an empty
    bucket, or a byte total whose mean falls outside its bucket's
    range. Given [classifications], the count of the classifier the
    summary goes with, it also rejects an entry whose source or target
    is not below it, naming the line, the entry and the id. *)

val decode : ?classifications:int -> string -> t
(** {!scan} into a summary. [decode (encode t)] preserves per-bucket
    message counts and byte totals (individual sizes within a bucket
    are summarized — that is the point of the buckets), so [encode] is
    a fixpoint after one round trip. Raises {!Decode_error} on any
    text {!scan} rejects. *)

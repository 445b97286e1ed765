(** The metrics registry: named counters, gauges, and histograms.

    The paper's evaluation (§5) is a set of one-shot measurements; a
    long-running partitioned system — and the adaptive repartitioning
    of §6 — needs the same numbers continuously. This registry is the
    surface those numbers flow through: the RTE's layers and the
    analysis engine register instruments against a caller-owned
    registry; the registry renders as Prometheus-style text exposition
    or JSON. The RTE keeps its counts in plain fields and publishes them
    once, when it is uninstalled; only distributions, which have no
    plain-field counterpart, are observed as they happen.

    Histograms reuse {!Coign_util.Exp_bucket}, the paper's §3.3
    exponential size buckets, so a latency or message-size distribution
    costs O(log max) memory regardless of run length — the same
    argument that made communication profiles execution-length
    independent.

    Instruments are identified by (name, label set): registering the
    same identity twice returns the existing instrument, so repeated
    runs against one registry accumulate. Code that passes no registry
    pays nothing: the instrumented subsystems take [?metrics] and
    publish nothing when it is absent. *)

type registry
type counter
type gauge
type histogram

val registry : unit -> registry

val counter :
  registry -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Monotonically increasing value. Raises [Invalid_argument] if [name]
    is not a valid metric name ([[a-zA-Z_][a-zA-Z0-9_]*]) or is already
    registered with a different type. *)

val gauge : registry -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  registry -> ?help:string -> ?labels:(string * string) list -> string -> histogram
(** Exponentially bucketed distribution of non-negative integers
    (bytes, rounded microseconds). *)

val inc : ?by:float -> counter -> unit
(** Add [by] (default 1); a negative or NaN [by] raises
    [Invalid_argument]. *)

val inc_int : counter -> int -> unit
val counter_value : counter -> float

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> int -> unit
(** Record one observation (clamped at 0). *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val prometheus : registry -> string
(** Text exposition: [# HELP] / [# TYPE] headers and one
    [name{labels} value] line per series; histograms render cumulative
    [_bucket{le="..."}] lines over the {!Coign_util.Exp_bucket} bounds
    plus [_sum] and [_count]. Families are sorted by name and series by
    label set, so equal registries expose byte-identically. Non-finite
    values print as [NaN], [+Inf] and [-Inf]. Quoted label values
    escape exactly backslash, double-quote and line-feed, and help text
    backslash and line-feed; every other byte, tabs included, passes
    through raw (JSON escaping would corrupt what a scraper reads
    back). *)

val json : registry -> Coign_util.Jsonu.t
(** The registry as a JSON object keyed by family name, same ordering
    guarantees as {!prometheus}. *)

val to_json_string : registry -> string

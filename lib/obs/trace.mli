(** Span tracing — the causal complement to {!Coign_core.Logger}.

    Where the information logger streams flat events, a tracer records
    {e spans}: bracketed intervals on the simulation clock whose
    parent/child structure mirrors the RTE's shadow stack. A tracer
    hands each span to a {!Sink.t}, the same shape as the logger and
    the tap; tracing is zero-cost unless a run opts in: the RTE takes
    [?tracer] and, when absent, executes the same instructions it
    always did.

    Because spans are timed on the deterministic sim clock (virtual
    communication time plus charged compute), a trace of a seeded run
    is byte-reproducible and golden-testable, yet still opens in real
    trace viewers through {!chrome_json}. *)

type sink = Span.t Sink.t
(** Receives each span when it closes (children before parents,
    emission order = close order). *)

(** {1 Tracers} *)

type t
(** Allocates span ids and tracks the stack of open spans for one
    trace. Single-domain, like the shadow stack it mirrors. *)

val create : ?trace_id:int -> sink -> t
(** A fresh tracer; span ids start at 0. [trace_id] defaults to 1. *)

val open_span : t -> name:string -> cat:string -> at_us:float -> int
(** Start a span at sim-clock time [at_us]; its parent is the
    currently-innermost open span. Returns the span id. *)

val close_span : t -> ?args:(string * Coign_util.Jsonu.t) list -> int -> at_us:float -> unit
(** Close the innermost open span (which must be [id] — spans close in
    LIFO order like the shadow stack; anything else raises
    [Invalid_argument]) and emit it. *)

val with_span :
  t ->
  name:string ->
  cat:string ->
  clock:(unit -> float) ->
  ?args:(('a, exn) result -> (string * Coign_util.Jsonu.t) list) ->
  (unit -> 'a) ->
  'a
(** Bracket [f] in a span, reading entry/exit times from [clock]; the
    span's attributes are [args] of [f]'s outcome. If [f] raises, the
    span still closes, with an ["error"] attribute after [args], and
    the exception is re-raised. *)

val depth : t -> int
(** Open spans. *)

val span_count : t -> int
(** Spans emitted so far. *)

val chrome_json : Span.t list -> string
(** The spans as a Chrome [trace_event] JSON document
    ([{"traceEvents": [...], ...}]) — loadable in about://tracing and
    Perfetto. *)

(** A minimal JSON value: build, print, parse.

    The observability subsystem (traces, metrics, event serialization)
    needs structured machine-readable output that external tools can
    parse — Chrome's trace viewer, Prometheus-adjacent scrapers, the CI
    smoke checks — without pulling a JSON dependency into the toolchain
    image. This is deliberately the smallest JSON that round-trips the
    values Coign produces: no streaming, no number preservation beyond
    int/float, UTF-8 passed through verbatim. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Strings are escaped per RFC 8259 (control
    characters as [\u00XX]); floats print with [%.17g] plus a [".0"]
    suffix when they would otherwise look integral, so a [Float] never
    re-parses as an [Int]. NaN and infinities are not representable in
    JSON and render as [null]. *)

val pp : Format.formatter -> t -> unit
(** [to_string] on a formatter. *)

val escape : string -> string
(** The escaped body of a JSON string literal (no surrounding
    quotes). *)

val parse : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed; trailing
    garbage is an error). Numbers without [.], [e], or [E] that fit in
    an OCaml [int] parse as [Int], everything else as [Float].
    [\uXXXX] escapes decode to UTF-8, surrogate pairs included. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for absent fields or non-objects. *)

val equal : t -> t -> bool

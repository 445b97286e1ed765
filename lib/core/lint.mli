(** Remotability linter.

    Structured diagnostics over an image's static interface metadata,
    with stable codes so build systems can filter them:

    - [CG000] (info) — image carries no static metadata; flow checks
      skipped.
    - [CG001] (warning) — non-remotable method on an exported
      interface.
    - [CG002] (warning) — an otherwise-remotable interface passes a
      non-remotable interface pointer (the opaque handle escapes one
      hop further than CG001 shows).
    - [CG003] (warning) — a class references both GUI and storage APIs;
      the GUI pin wins (see {!Static_analysis.class_verdict}).
    - [CG004] (warning) — class is creatable but unreachable from the
      main program.
    - [CG005] (warning) — a method carries an unbounded recursive
      structure (sanitized to an opaque marker at image build time).
    - [CG006] (info) — a class pair, or the main program and a class,
      that can exchange a non-remotable interface, derived by
      {!Interface_flow}; on PhotoDraw these lines are Figure 5's
      "black web". A finding only: the cut takes its non-remotable
      pairs from the profile.
    - [CG007] (error) — a computed or proposed distribution violates a
      pin or co-location constraint or splits a profiled non-remotable
      pair; raised as {!Rejected} by {!Adps.analyze}.

    The [Coign_verify] explorer emits three further codes through the
    same diagnostic type ([coign verify]):

    - [CG008] (error) — a reachable failover interleaving separates two
      classifications joined by a non-remotable interface, including
      transient mid-migration placements.
    - [CG009] (error) — a reachable migration moves a classification
      the static remotability facts mark unsafe (the ladder's table
      disagrees with the derived truth, and the disagreement is
      exercisable).
    - [CG010] — a dead rung: (error) an open breaker that can never
      admit a half-open probe, or (warning) a ladder rung no explored
      interleaving ever installs. *)

type severity = Info | Warning | Error

type diagnostic = {
  code : string;
  severity : severity;
  subject : string;
  message : string;
}

exception Rejected of diagnostic list
(** Raised by analysis when a distribution would violate a constraint
    (CG007 diagnostics). *)

val diag : string -> severity -> string -> string -> diagnostic
(** [diag code severity subject message]. *)

val order : diagnostic list -> diagnostic list
(** Deterministic report order: by code, then subject, then message. *)

val lint_image : Coign_image.Binary_image.t -> diagnostic list
(** All checks applicable to the image, ordered. Runs the interface-flow
    analysis when the image has metadata. *)

val worst : diagnostic list -> severity option

val pp_text : Format.formatter -> diagnostic list -> unit
(** One [severity code subject: message] line per diagnostic. *)

val to_json : diagnostic list -> Coign_util.Jsonu.t
(** The diagnostics as a JSON array of objects with [code], [severity],
    [subject] and [message] string fields. *)

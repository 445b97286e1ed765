(** A synthetic high-rate ingest pipeline (the fourth application).

    Shape borrowed from streaming capture systems (a capture card
    feeding decode → pack → archive stages, plus an archived-capture
    replay path): the capture driver and operator console are pinned to
    the client by their device/GUI API references, the archive writer
    and catalog index are pinned to the server by storage APIs, and the
    stages in between are free — the interesting placements.

    The two dataflows pull the cut in opposite directions: streaming
    wants the decoder and packer on the *client* (packed frames are ~12x
    smaller than raw ones, so the wire should carry packed data), while
    replay wants the replayer on the *server* (it reads bulk archive
    segments but ships only tiny telemetry reports to the monitor).
    Profiling different scenario mixes therefore yields genuinely
    different distributions — the per-stage placement stress the
    open-loop load simulator drives against. *)

val app : App.t

(** Octarine: the component word processor (paper §4.1).

    A research prototype "designed to explore the limits of component
    granularity": roughly 150 component classes from user-interface
    buttons to sheet-music editors, handling word-processing, sheet
    music, and table documents, with fragments of all three combinable
    in one document.

    The synthetic reproduction preserves the structure the paper's
    experiments depend on:

    - a GUI forest of hundreds of widget instances connected by
      non-remotable paint interfaces (Figure 5's black web);
    - a document reader that scans the whole file once to paginate
      (file traffic proportional to document size) and then serves
      parsed pages from memory — the component Coign sends to the
      server;
    - a text-properties component fed in bulk by the reader and queried
      lightly by the rest of the application (the second server
      component of Figure 5);
    - a story/paragraph/run text pipeline with a bounded prefetch
      window, so the parsed traffic that crosses a cut is capped while
      raw file traffic is not (why o_oldwp7 saves ~95% and o_oldwp0
      nothing);
    - a table model/view split where views fetch small tables whole but
      window large ones (why o_oldtb3 saves ~99% and o_oldtb0 ~1%);
    - a page-placement negotiation engine that chatters with the
      reader, paragraphs, and table models when text and tables mix —
      the cluster of 281 components Figure 8 sends to the server. *)

val app : App.t

val figure5 : App.scenario
(** Loads a 35-page text-only document — the workload of the paper's
    Figure 5 (not a Table 1 row). *)

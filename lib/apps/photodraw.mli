(** PhotoDraw: the consumer image-manipulation application (paper §4.1).

    The reproduction preserves the structure behind Figure 4 and the
    p_* rows of Tables 4-5:

    - sprite caches that manage the pixels of hierarchical image
      subsets and pass shared-memory regions opaquely through
      NON-remotable interfaces — the almost-50 solid black lines that
      pin most of PhotoDraw's granularity to the client;
    - a document reader that scans .mix compositions through the
      storage server, plus seven high-level property sets built
      directly from file data with larger input than output — the
      eight components Coign places on the server;
    - parsed streams that are only modestly smaller than the raw file
      (pixels are pixels), which is why PhotoDraw's savings are the
      smallest in the suite (5-54% in the paper). *)

val app : App.t

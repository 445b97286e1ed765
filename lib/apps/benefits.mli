(** The MSDN Corporate Benefits Sample (paper §4.1, §4.3).

    A 3-tier client-server application: a Visual Basic front-end on the
    client, business-logic components on the middle tier, and a
    database reached through ODBC. The reproduction models the
    2-machine slice the paper analyzes (front-end machine vs middle
    tier; the ODBC gateway is pinned to the middle tier because Coign
    cannot analyze the proprietary database connection).

    The structure behind Figure 6: middle-tier caching components
    answer many small front-end queries but refill from the business
    logic in bulk, so Coign profitably moves the caches (and the row
    sets they materialize) to the client while the business logic —
    whose traffic is dominated by its ODBC row sets — stays on the
    middle tier. The shipped (default) distribution keeps everything
    but the front-end on the middle tier. *)

val app : App.t

(** Plain-text table rendering for the benchmark harness and examples.

    Produces aligned, boxless tables in the style of the paper's
    Tables 2-5 so that bench output can be compared side by side with
    the published numbers. *)

type align = Left | Right

type t

val create : (string * align) list -> t
(** [create columns] starts a table with the given header cells. *)

val add_row : t -> string list -> unit
(** Append a row; must have as many cells as there are columns. *)

val render : t -> string
(** Render with every column padded to its widest cell. *)

val cell_float : ?decimals:int -> float -> string
(** Format a float with fixed [decimals] (default 3). *)

val cell_pct : float -> string
(** Format a ratio as a percentage with no decimals, e.g. [0.95] as
    ["95%"]. *)

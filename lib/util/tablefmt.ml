type align = Left | Right

type t = { columns : (string * align) list; mutable rows : string list list (* reversed *) }

let create columns = { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Tablefmt.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let render t =
  let headers = List.map fst t.columns in
  let aligns = List.map snd t.columns in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc cells -> max acc (String.length (List.nth cells i)))
          (String.length h) rows)
      headers
  in
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let buf = Buffer.create 256 in
  let emit_cells cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth aligns i) (List.nth widths i) c))
      cells;
    Buffer.add_char buf '\n'
  in
  let total_width =
    List.fold_left ( + ) 0 widths + (2 * (List.length widths - 1))
  in
  emit_cells headers;
  Buffer.add_string buf (String.make total_width '-');
  Buffer.add_char buf '\n';
  List.iter emit_cells rows;
  Buffer.contents buf

let cell_float ?(decimals = 3) v = Printf.sprintf "%.*f" decimals v

let cell_pct r = Printf.sprintf "%.0f%%" (r *. 100.)

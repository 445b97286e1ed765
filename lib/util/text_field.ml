let bad = min_int

let rec digits s k j acc =
  if k = j then acc
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> digits s (k + 1) j ((acc * 10) + Char.code c - 48)
    | _ -> bad

(* At most 18 digits, so the plain read cannot overflow. *)
let int s i j =
  let d = if i < j && String.unsafe_get s i = '-' then i + 1 else i in
  let v = if j - d >= 1 && j - d <= 18 then digits s d j 0 else bad in
  if v <> bad then if d > i then -v else v
  else match int_of_string_opt (String.sub s i (j - i)) with Some v -> v | None -> bad

external get64 : string -> int -> int64 = "%caml_string_get64u"

(* Whether the eight bytes at [i] hold a tab or a newline: the
   zero-byte test, (v - 0x01..) land (lnot v) land 0x80.., on the word
   xor each separator. Exact as to whether some byte matches. *)
let has_separator s i =
  let w = get64 s i in
  let t = Int64.logxor w 0x0909090909090909L and n = Int64.logxor w 0x0a0a0a0a0a0a0a0aL in
  Int64.logand
    (Int64.logor
       (Int64.logand (Int64.sub t 0x0101010101010101L) (Int64.lognot t))
       (Int64.logand (Int64.sub n 0x0101010101010101L) (Int64.lognot n)))
    0x8080808080808080L
  <> 0L

(* The length is passed down: [String.length] costs a few
   instructions per byte otherwise. *)
let rec bytes_to_separator s len i =
  if i = len then i
  else match String.unsafe_get s i with '\t' | '\n' -> i | _ -> bytes_to_separator s len (i + 1)

(* Eight bytes at a time up to the word that holds the separator. *)
let rec field_end_within s len i =
  if i + 8 <= len && not (has_separator s i) then field_end_within s len (i + 8)
  else bytes_to_separator s len i

let field_end s i = field_end_within s (String.length s) i

let is_tab s i = i < String.length s && String.unsafe_get s i = '\t'

(* Digits of [m <= 0], most significant first. Working on the negative
   side reaches [min_int], which has no positive counterpart. *)
let rec add_nonpositive buf m =
  if m <= -10 then add_nonpositive buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpositive buf n
  end
  else add_nonpositive buf (-n)

type writer = Buffer.t

let writer () = Buffer.create 256

let w_u8 b v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.w_u8: out of range";
  Buffer.add_char b (Char.chr v)

let w_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.w_u32: out of range";
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF))

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_list b f xs =
  w_u32 b (List.length xs);
  List.iter f xs

let contents = Buffer.contents

type reader = { data : string; mutable pos : int }

exception Malformed of string

let reader data = { data; pos = 0 }

let need r n =
  if r.pos + n > String.length r.data then raise (Malformed "truncated input")

let r_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u32 r =
  need r 4;
  let b i = Char.code r.data.[r.pos + i] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let r_str r =
  let n = r_u32 r in
  need r n;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r f =
  let n = r_u32 r in
  List.init n (fun _ -> f r)

let at_end r = r.pos = String.length r.data

let expect_end r = if not (at_end r) then raise (Malformed "trailing bytes")

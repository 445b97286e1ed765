(* Frames live in a growable array, top at [n - 1]: a push or pop is a
   store and a counter bump, with no cons cell per call. *)
type t = { mutable frames : Frame.t array; mutable n : int }

let empty_slot = Frame.make ~inst:(-1) ~cls:"" ~classification:(-1) ~iface:"" ~meth:""

let create () = { frames = Array.make 32 empty_slot; n = 0 }

let push t f =
  if t.n = Array.length t.frames then begin
    let bigger = Array.make (2 * t.n) empty_slot in
    Array.blit t.frames 0 bigger 0 t.n;
    t.frames <- bigger
  end;
  t.frames.(t.n) <- f;
  t.n <- t.n + 1

let pop t =
  if t.n = 0 then invalid_arg "Shadow_stack.pop: empty stack";
  t.n <- t.n - 1

let top_or t default = if t.n = 0 then default else t.frames.(t.n - 1)

let nth t i =
  if i < 0 || i >= t.n then invalid_arg "Shadow_stack.nth";
  t.frames.(t.n - 1 - i)

let depth t = t.n

let walk ?limit t =
  let k =
    match limit with
    | None -> t.n
    | Some k ->
        if k < 0 then invalid_arg "Shadow_stack.walk: negative limit";
        min k t.n
  in
  List.init k (fun i -> t.frames.(t.n - 1 - i))

let clear t = t.n <- 0

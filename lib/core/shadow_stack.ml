(* Three parallel int arrays, top at [n - 1]: a push is three stores
   and a counter bump, and nothing per call is allocated. *)
type t = {
  mutable insts : int array;
  mutable classifications : int array;
  mutable sites : int array;
  mutable n : int;
}

let create () =
  { insts = Array.make 32 0; classifications = Array.make 32 0; sites = Array.make 32 0; n = 0 }

let grow a n =
  let bigger = Array.make (2 * n) 0 in
  Array.blit a 0 bigger 0 n;
  bigger

let push t ~inst ~classification ~site =
  let n = t.n in
  if n = Array.length t.insts then begin
    t.insts <- grow t.insts n;
    t.classifications <- grow t.classifications n;
    t.sites <- grow t.sites n
  end;
  Array.unsafe_set t.insts n inst;
  Array.unsafe_set t.classifications n classification;
  Array.unsafe_set t.sites n site;
  t.n <- n + 1

let pop t =
  if t.n = 0 then invalid_arg "Shadow_stack.pop: empty stack";
  t.n <- t.n - 1

let depth t = t.n

(* Slot of the [i]th frame from the top. *)
let slot t i name =
  if i < 0 || i >= t.n then invalid_arg name;
  t.n - 1 - i

let inst t i = Array.unsafe_get t.insts (slot t i "Shadow_stack.inst")
let classification t i = Array.unsafe_get t.classifications (slot t i "Shadow_stack.classification")
let site t i = Array.unsafe_get t.sites (slot t i "Shadow_stack.site")

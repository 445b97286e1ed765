(* In-memory span recorder for the traced run. A span brackets one call
   the benchmark makes into a library layer: name, start, end, the
   enclosing span and the pass (iteration) it belongs to. Nothing is
   written while the benchmark measures; the report reads the spans at
   exit. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** [-1] at the top of a pass *)
  sp_iter : int;
  sp_start : float;
  sp_stop : float;
}

type t = {
  clock : unit -> float;
  mutable spans : span list;  (** most recent first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable iter : int;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; spans = []; stack = []; next_id = 0; iter = 0 }

let set_iter t iter = t.iter <- iter

let record t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let stop = t.clock () in
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
      t.spans <-
        { sp_id = id; sp_name = name; sp_parent = parent; sp_iter = t.iter; sp_start = start;
          sp_stop = stop }
        :: t.spans)
    f

let spans t = List.rev t.spans

(* Self time of every span: its duration minus the durations of its
   direct children. Children of one span never overlap (the benchmark
   is single-threaded), so their sum is the part of the parent's
   interval they cover. Summed per span name, in first-seen order. *)
let self_by_name spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_time s.sp_parent
          (Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_parent)
          +. (s.sp_stop -. s.sp_start)))
    spans;
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun s ->
      let self =
        s.sp_stop -. s.sp_start
        -. Option.value ~default:0. (Hashtbl.find_opt child_time s.sp_id)
      in
      (match Hashtbl.find_opt totals s.sp_name with
      | None -> order := s.sp_name :: !order
      | Some _ -> ());
      Hashtbl.replace totals s.sp_name
        (self +. Option.value ~default:0. (Hashtbl.find_opt totals s.sp_name)))
    (List.sort (fun a b -> compare a.sp_id b.sp_id) spans);
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

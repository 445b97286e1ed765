type phase = {
  ph_name : string;
  ph_count : int;
  ph_total_s : float;
  ph_max_s : float;
}

type cell = { mutable c_count : int; mutable c_total_s : float; mutable c_max_s : float }

type t = {
  clock : unit -> float;
  lock : Mutex.t;
  mutable order : string list;  (* reversed first-use order *)
  cells : (string, cell) Hashtbl.t;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; lock = Mutex.create (); order = []; cells = Hashtbl.create 16 }

let record t name ~seconds =
  let seconds = Float.max 0. seconds in
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.cells name with
  | Some c ->
      c.c_count <- c.c_count + 1;
      c.c_total_s <- c.c_total_s +. seconds;
      if seconds > c.c_max_s then c.c_max_s <- seconds
  | None ->
      Hashtbl.add t.cells name { c_count = 1; c_total_s = seconds; c_max_s = seconds };
      t.order <- name :: t.order);
  Mutex.unlock t.lock

let time t name f =
  let t0 = t.clock () in
  match f () with
  | v ->
      record t name ~seconds:(t.clock () -. t0);
      v
  | exception e ->
      record t name ~seconds:(t.clock () -. t0);
      raise e

let phases t =
  Mutex.lock t.lock;
  let out =
    List.rev_map
      (fun name ->
        let c = Hashtbl.find t.cells name in
        { ph_name = name; ph_count = c.c_count; ph_total_s = c.c_total_s; ph_max_s = c.c_max_s })
      t.order
  in
  Mutex.unlock t.lock;
  out

let total_s t = List.fold_left (fun acc ph -> acc +. ph.ph_total_s) 0. (phases t)

let pp_text ppf t =
  let ps = phases t in
  let total = List.fold_left (fun acc ph -> acc +. ph.ph_total_s) 0. ps in
  Format.fprintf ppf "%-24s  %7s  %12s  %12s  %6s@," "phase" "count" "total (ms)" "max (ms)"
    "share";
  Format.fprintf ppf "%s@," (String.make 72 '-');
  List.iter
    (fun ph ->
      Format.fprintf ppf "%-24s  %7d  %12.3f  %12.3f  %5.1f%%@," ph.ph_name ph.ph_count
        (ph.ph_total_s *. 1e3) (ph.ph_max_s *. 1e3)
        (if total > 0. then 100. *. ph.ph_total_s /. total else 0.))
    ps;
  Format.fprintf ppf "%-24s  %7s  %12.3f@," "total" "" (total *. 1e3)

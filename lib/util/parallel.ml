(* Work is distributed by an atomic next-index counter: domains grab
   items until the counter passes the batch size. The submitting domain
   participates too, then waits on a condition variable until the
   completed count reaches the batch size. Worker domains distinguish
   successive batches by a generation number so a slow worker can never
   re-run a stale job. *)

type job = {
  j_gen : int;
  j_total : int;
  j_next : int Atomic.t;
  j_completed : int Atomic.t;
  j_run : int -> unit;  (* must not raise; captures its own failures *)
}

type t = {
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : job option;
  mutable gen : int;
  mutable stop : bool;
  mutable busy : bool;  (* a batch is in flight; nested maps run inline *)
  mutable workers : unit Domain.t list;
}

let run_job t j =
  let rec go () =
    let i = Atomic.fetch_and_add j.j_next 1 in
    if i < j.j_total then begin
      j.j_run i;
      let completed = 1 + Atomic.fetch_and_add j.j_completed 1 in
      if completed = j.j_total then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.work_done;
        Mutex.unlock t.mutex
      end;
      go ()
    end
  in
  go ()

let rec worker_loop t last_gen =
  Mutex.lock t.mutex;
  let rec await () =
    if t.stop then None
    else
      match t.job with
      | Some j when j.j_gen <> last_gen -> Some j
      | _ ->
          Condition.wait t.work_ready t.mutex;
          await ()
  in
  let next = await () in
  Mutex.unlock t.mutex;
  match next with
  | None -> ()
  | Some j ->
      run_job t j;
      worker_loop t j.j_gen

let create ?domains () =
  let count =
    match domains with
    | Some d ->
        if d < 0 then invalid_arg "Parallel.create: negative domain count";
        d
    | None -> max 0 (Domain.recommended_domain_count () - 1)
  in
  let t =
    {
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      gen = 0;
      stop = false;
      busy = false;
      workers = [];
    }
  in
  t.workers <- List.init count (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let worker_count t = List.length t.workers

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let map_init t ~init ~f items =
  let total = Array.length items in
  let inline () =
    let state = init () in
    Array.map (fun x -> f state x) items
  in
  if total = 0 then [||]
  else if t.workers = [] then inline ()
  else begin
    Mutex.lock t.mutex;
    if t.busy || t.stop then begin
      (* Nested map from inside a running batch (or after shutdown):
         run on the calling domain rather than deadlock waiting for
         workers that are busy executing us. *)
      Mutex.unlock t.mutex;
      inline ()
    end
    else begin
      t.busy <- true;
      let results = Array.make total None in
      let failure = Atomic.make None in
      (* One state per participating domain, created on first use. *)
      let state_key = Domain.DLS.new_key init in
      let run i =
        if Atomic.get failure = None then
          try results.(i) <- Some (f (Domain.DLS.get state_key) items.(i))
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failure None (Some (e, bt)))
      in
      t.gen <- t.gen + 1;
      let j =
        {
          j_gen = t.gen;
          j_total = total;
          j_next = Atomic.make 0;
          j_completed = Atomic.make 0;
          j_run = run;
        }
      in
      t.job <- Some j;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      run_job t j;
      Mutex.lock t.mutex;
      while Atomic.get j.j_completed < total do
        Condition.wait t.work_done t.mutex
      done;
      t.job <- None;
      t.busy <- false;
      Mutex.unlock t.mutex;
      match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.map (function Some v -> v | None -> assert false) results
    end
  end

let map t ~f items = map_init t ~init:(fun () -> ()) ~f:(fun () x -> f x) items

let map_list t ~f items = Array.to_list (map t ~f (Array.of_list items))

(* No workers: [map_init] takes its inline path before touching any
   mutable field, so one value serves every domain. *)
let sequential = create ~domains:0 ()

let default_pool = ref None

let default () =
  match !default_pool with
  | Some p when not p.stop -> p
  | _ ->
      let p = create () in
      default_pool := Some p;
      at_exit (fun () -> shutdown p);
      p

(* Explicit-state exploration of failover interleavings.

   States are (rung, canonical breaker snapshot, per-group locations
   and hosts); events are the model's alphabet below.  Breaker steps go
   through the real, pure [Health.transition] — the same function the
   RTE's mutable API delegates to — applied at canonical times so the
   float fields stay on a finite grid:

   - [sn_opened_at_us] is pinned to 0 and Observe is applied exactly at
     cooloff expiry.  Exact: the field is only read by Observe's expiry
     comparison, and the Cooloff event means "enough virtual time has
     passed".
   - [sn_consecutive_failures] is zeroed outside Closed.  Exact: the
     count is only read by the Closed trip check, and every path back
     into Closed (probe-quota success) zeroes it first.
   - [sn_probe_successes] is zeroed outside Half_open.  Exact: the count
     is only read by the close-quota check, and both trips and the
     Open -> Half_open transition zero it.
   - [sn_cooloff_us] ranges over the model's precomputed escalation
     chain; [Model.cooloff_index] maps it back by bit equality, which
     doubles as a cross-check that the shared transition function really
     produced a chain value.

   Partial-order reduction: all remotable traffic between separated
   groups drives one shared breaker, and the breaker's inputs carry no
   location information, so every separated pair collapses onto the two
   link events.  A link event moves the ladder by the RTE's own rung
   rule, [Route.next_rung], with every open stuck: the RTE on a one-host
   route, not on a pool rung, where it may promote and stay.  Likewise
   the safe (truth-safe, ladder-safe) groups
   can't violate any invariant in any order, so their pending moves
   collapse into one atomic Migrate_rest; only risky groups keep
   individual Migrate events.

   Representation.  Everything a state holds is an int:

   - The canonical breakers reachable from the initial one form a small
     automaton, built once per run by stepping [Health.transition] from
     the initial snapshot; a breaker is its index there, and each link
     or cooloff event is a table lookup.  Two snapshots share an index
     iff their canonical fields (state, failure count, probe count,
     cooloff by chain index) are equal — the fields the state key has
     always held.
   - A placement is one int per group, [host * 2 + server bit].  Each
     subtree interns the placements it reaches (a placement is an index
     into its store), and remembers per placement whether the link is
     active and whether some non-remotable pair is separated: both read
     nothing else.
   - The state key is [(placement * rungs + rung) * breakers + breaker],
     an [Int_table] key.  Breaker events keep the placement, so they
     cost a lookup; only migrations and promotions write a placement
     and look it up.
   - A subtree stores its states in admission order, with their parent
     and event: BFS pops them in that order, and a counterexample's
     trace is read back off the parent chain only when one is
     recorded. *)

open Coign_util
open Coign_core
module Health = Coign_netsim.Health

type event = Link_ok | Link_fail | Cooloff | Migrate of int | Migrate_rest | Promote of int

let event_id _m = function
  | Link_ok -> "link_ok"
  | Link_fail -> "link_fail"
  | Cooloff -> "cooloff"
  | Migrate g -> Printf.sprintf "migrate:%d" g
  | Migrate_rest -> "migrate_rest"
  | Promote g -> Printf.sprintf "promote:%d" g

let pp_event m ppf = function
  | Link_ok -> Format.pp_print_string ppf "link_ok"
  | Link_fail -> Format.pp_print_string ppf "link_fail"
  | Cooloff -> Format.pp_print_string ppf "cooloff"
  | Migrate g ->
      Format.fprintf ppf "migrate(%s)" m.Model.m_groups.(g).Model.g_subject
  | Migrate_rest -> Format.pp_print_string ppf "migrate_rest"
  | Promote g ->
      Format.fprintf ppf "promote(%s)" m.Model.m_groups.(g).Model.g_subject

let pp_trace m ppf trace =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    (pp_event m) ppf trace

type violation = {
  vl_code : string;
  vl_severity : Lint.severity;
  vl_subject : string;
  vl_message : string;
  vl_trace : event list;
}

type stats = {
  sr_states : int;
  sr_transitions : int;
  sr_dedup_hits : int;
  sr_depth : int;
  sr_complete : bool;
  sr_rungs_reached : bool array;
}

type result = { r_stats : stats; r_violations : violation list }

(* --- Events as ints --------------------------------------------------- *)

(* 0 link_ok, 1 link_fail, 2 cooloff, 3 migrate_rest, then 4 + 2g for
   migrate g and 5 + 2g for promote g. *)
let ev_link_ok = 0
let ev_link_fail = 1
let ev_cooloff = 2
let ev_migrate_rest = 3

let event_of_code = function
  | 0 -> Link_ok
  | 1 -> Link_fail
  | 2 -> Cooloff
  | 3 -> Migrate_rest
  | c -> if c land 1 = 0 then Migrate ((c - 4) / 2) else Promote ((c - 5) / 2)

(* --- The breaker automaton -------------------------------------------- *)

let canon (snap : Health.snapshot) =
  {
    snap with
    Health.sn_opened_at_us = 0.;
    sn_consecutive_failures =
      (match snap.Health.sn_state with
      | Health.Closed -> snap.Health.sn_consecutive_failures
      | _ -> 0);
    sn_probe_successes =
      (match snap.Health.sn_state with
      | Health.Half_open -> snap.Health.sn_probe_successes
      | _ -> 0);
  }

type breakers = {
  b_policy : Health.policy;
  b_chain : float array;  (* the model's cooloff chain *)
  b_snap : Health.snapshot array;  (* canonical *)
  b_on_chain : bool array;  (* the cooloff is a chain value *)
  b_open : bool array;
  b_ok : int array;  (* successor on link_ok *)
  b_fail : int array;  (* successor on link_fail *)
  b_cooloff : int array;  (* successor at cooloff expiry; -1: no probe (I3) *)
  b_count : int;
}

let same_snapshot (a : Health.snapshot) (b : Health.snapshot) =
  a.Health.sn_state = b.Health.sn_state
  && a.Health.sn_consecutive_failures = b.Health.sn_consecutive_failures
  && a.Health.sn_probe_successes = b.Health.sn_probe_successes
  && Int64.equal
       (Int64.bits_of_float a.Health.sn_cooloff_us)
       (Int64.bits_of_float b.Health.sn_cooloff_us)

let grown a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Every canonical breaker reachable from the initial one, stepped by
   [Health.transition] exactly as the explorer applies events: link
   outcomes at time 0 from Closed and Half_open, Observe at cooloff
   expiry from Open.  A snapshot whose cooloff is off the chain is
   neither shared nor stepped: admitting a state that holds it raises
   {!Model.cooloff_index}'s error, as keying it always did. *)
let build_breakers (m : Model.t) =
  let policy = m.Model.m_policy in
  let s0 = canon (Health.initial_snapshot policy) in
  let snap = ref (Array.make 8 s0) and on_chain = ref (Array.make 8 false) in
  let ok = ref (Array.make 8 0) and fail = ref (Array.make 8 0) in
  let cooloff = ref (Array.make 8 (-1)) in
  let count = ref 0 in
  let add s =
    let chained =
      match Model.cooloff_index m s.Health.sn_cooloff_us with
      | _ -> true
      | exception Invalid_argument _ -> false
    in
    let rec find i =
      if i >= !count then -1
      else if !on_chain.(i) && same_snapshot !snap.(i) s then i
      else find (i + 1)
    in
    let i = if chained then find 0 else -1 in
    if i >= 0 then i
    else begin
      let i = !count in
      snap := grown !snap i s0;
      on_chain := grown !on_chain i false;
      ok := grown !ok i 0;
      fail := grown !fail i 0;
      cooloff := grown !cooloff i (-1);
      !snap.(i) <- s;
      !on_chain.(i) <- chained;
      incr count;
      i
    end
  in
  ignore (add s0);
  let next = ref 0 in
  while !next < !count do
    let i = !next in
    incr next;
    let s = !snap.(i) in
    if !on_chain.(i) then
      match s.Health.sn_state with
      | Health.Open -> (
          let at_us = s.Health.sn_opened_at_us +. s.Health.sn_cooloff_us in
          match Health.transition policy s ~at_us Health.Observe with
          | s', Some { Health.tr_to = Health.Half_open; _ } ->
              let j = add (canon s') in
              !cooloff.(i) <- j
          | _ -> !cooloff.(i) <- -1)
      | Health.Closed | Health.Half_open ->
          let j_ok = add (canon (fst (Health.transition policy s ~at_us:0. Health.Success))) in
          let j_fail = add (canon (fst (Health.transition policy s ~at_us:0. Health.Failure))) in
          !ok.(i) <- j_ok;
          !fail.(i) <- j_fail
  done;
  let n = !count in
  {
    b_policy = policy;
    b_chain = m.Model.m_cooloffs;
    b_snap = Array.sub !snap 0 n;
    b_on_chain = Array.sub !on_chain 0 n;
    b_open = Array.init n (fun i -> !snap.(i).Health.sn_state = Health.Open);
    b_ok = !ok;
    b_fail = !fail;
    b_cooloff = !cooloff;
    b_count = n;
  }

let same_chain a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* The automaton depends only on the policy and the chain, so each
   domain keeps the last one it built: every model compiled with the
   same policy shares it. *)
let last_breakers = Domain.DLS.new_key (fun () -> None)

let breakers m =
  match Domain.DLS.get last_breakers with
  | Some b when b.b_policy == m.Model.m_policy && same_chain b.b_chain m.Model.m_cooloffs -> b
  | _ ->
      let b = build_breakers m in
      Domain.DLS.set last_breakers (Some b);
      b

(* --- What a run reads of the model ------------------------------------ *)

(* A placement holds one int per group: [host * 2 + 1] server-side,
   [host * 2] client-side. *)
let packed loc host =
  (host lsl 1) lor match loc with Constraints.Server -> 1 | Constraints.Client -> 0

type ctx = {
  c_model : Model.t;
  c_groups : int;
  c_rungs : int;
  c_breakers : breakers;
  c_target : int array;  (* rung * groups + g: where the rung places g, packed *)
  c_risky : int array;  (* risky groups, ascending: individual events *)
  c_rest : int array;  (* ladder-safe, truth-safe: what migrate_rest moves *)
  c_link_a : int array;  (* endpoints of the edges carrying remotable traffic *)
  c_link_b : int array;
  c_strict : int array;  (* the non-remotable edges, in edge order *)
  c_strict_key : int array;  (* per strict edge: first one with its interface *)
  c_subject_key : int array;  (* per risky group: first group with its subject *)
}

(* The indices [i < n] where [keep i] holds, ascending. *)
let indices n keep =
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keep i then incr count
  done;
  let a = Array.make !count 0 in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      a.(!j) <- i;
      incr j
    end
  done;
  a

let context m =
  let groups = m.Model.m_groups and edges = m.Model.m_edges in
  let g = Array.length groups and rungs = Model.rung_count m in
  let links = indices (Array.length edges) (fun i -> edges.(i).Model.e_remotable) in
  let strict = indices (Array.length edges) (fun i -> edges.(i).Model.e_non_remotable) in
  let risky = indices g (fun i -> Model.risky groups.(i)) in
  (* First occurrences by a linear scan: strict edges and risky groups
     are few (a clean ladder has no risky group). *)
  let strict_key =
    Array.map
      (fun e ->
        let iface = edges.(e).Model.e_iface in
        let rec first j =
          if String.equal edges.(strict.(j)).Model.e_iface iface then j else first (j + 1)
        in
        first 0)
      strict
  in
  let subject_key = Array.make g 0 in
  Array.iter
    (fun r ->
      let subject = groups.(r).Model.g_subject in
      let rec first j =
        if String.equal groups.(j).Model.g_subject subject then j else first (j + 1)
      in
      subject_key.(r) <- first 0)
    risky;
  let target = Array.make (rungs * g) 0 in
  for r = 0 to rungs - 1 do
    for i = 0 to g - 1 do
      let grp = groups.(i) in
      target.((r * g) + i) <- packed grp.Model.g_targets.(r) grp.Model.g_hosts.(r)
    done
  done;
  {
    c_model = m;
    c_groups = g;
    c_rungs = rungs;
    c_breakers = breakers m;
    c_target = target;
    c_risky = risky;
    c_rest =
      indices g (fun i -> groups.(i).Model.g_ladder_safe && not (Model.risky groups.(i)));
    c_link_a = Array.map (fun e -> edges.(e).Model.e_a) links;
    c_link_b = Array.map (fun e -> edges.(e).Model.e_b) links;
    c_strict = strict;
    c_strict_key = strict_key;
    c_subject_key = subject_key;
  }

(* I1's separation: client/server, or two server-side pool hosts (an
   inter-host call marshals exactly like a client-server one). *)
let separated va vb = va land 1 <> vb land 1 || (va land 1 = 1 && va lsr 1 <> vb lsr 1)

(* --- Placement stores ------------------------------------------------- *)

type store = {
  mutable s_vecs : int array;  (* [c_groups] ints per placement *)
  mutable s_hash : int array;
  mutable s_next : int array;  (* an older placement with the same hash, or -1 *)
  mutable s_flags : int array;  (* 1: the link is active; 2: I1 is broken *)
  mutable s_count : int;
  s_index : int Int_table.t;  (* hash -> newest placement with it *)
}

let flag_link = 1
let flag_split = 2

let store_create ctx cap =
  {
    s_vecs = Array.make (cap * ctx.c_groups) 0;
    s_hash = Array.make cap 0;
    s_next = Array.make cap 0;
    s_flags = Array.make cap 0;
    s_count = 0;
    s_index = Int_table.create ~absent:(-1) cap;
  }

let hash_placement a off g =
  let h = ref g in
  for j = off to off + g - 1 do
    h := (!h * 0x100000001b3) lxor Array.unsafe_get a j
  done;
  !h land max_int

let rec same_placement a off b boff j g =
  j >= g || (a.(off + j) = b.(boff + j) && same_placement a off b boff (j + 1) g)

let rec find_placement st g a off h p =
  if p < 0 then -1
  else if st.s_hash.(p) = h && same_placement st.s_vecs (p * g) a off 0 g then p
  else find_placement st g a off h st.s_next.(p)

(* What a placement alone decides: whether remotable traffic crosses
   the machine boundary (the breaker is driven), and whether some
   non-remotable pair is separated (I1 is broken). *)
let placement_flags ctx a off =
  let flags = ref 0 in
  for i = 0 to Array.length ctx.c_link_a - 1 do
    if a.(off + ctx.c_link_a.(i)) land 1 <> a.(off + ctx.c_link_b.(i)) land 1 then
      flags := flag_link
  done;
  let edges = ctx.c_model.Model.m_edges in
  for i = 0 to Array.length ctx.c_strict - 1 do
    let e = edges.(ctx.c_strict.(i)) in
    if separated a.(off + e.Model.e_a) a.(off + e.Model.e_b) then flags := !flags lor flag_split
  done;
  !flags

(* The placement's index in [st], added if new. *)
let intern ctx st a off =
  let g = ctx.c_groups in
  let h = hash_placement a off g in
  let head = Int_table.find st.s_index h in
  let p = find_placement st g a off h head in
  if p >= 0 then p
  else begin
    let p = st.s_count in
    if p >= Array.length st.s_hash then begin
      let cap = 2 * (p + 1) in
      let vecs = Array.make (cap * g) 0 in
      Array.blit st.s_vecs 0 vecs 0 (p * g);
      st.s_vecs <- vecs;
      st.s_hash <- grown st.s_hash p 0;
      st.s_next <- grown st.s_next p 0;
      st.s_flags <- grown st.s_flags p 0
    end;
    Array.blit a off st.s_vecs (p * g) g;
    st.s_hash.(p) <- h;
    st.s_next.(p) <- head;
    st.s_flags.(p) <- placement_flags ctx a off;
    Int_table.replace st.s_index h p;
    st.s_count <- p + 1;
    p
  end

(* --- Events ----------------------------------------------------------- *)

(* The rung a link event from breaker [brk] to [brk'] leaves: a step is
   a transition exactly when it changes the state. *)
let rung_on ctx rung ~brk ~brk' =
  let snap = ctx.c_breakers.b_snap in
  let to_ = snap.(brk').Health.sn_state in
  if to_ = snap.(brk).Health.sn_state then rung
    (* Every open is stuck: one shared breaker stands for every host
       link, so while it is open no replica admits calls. *)
  else Route.next_rung ~rungs:ctx.c_rungs ~rung ~stuck:true to_

(* Enumerate the events enabled in the state (placement [p] of [st],
   [rung], breaker [brk]), in the model's fixed order — breaker events,
   risky migrations by group, migrate_rest, promotions by group — and
   hand each successor to [f ev p' rung' brk' viol], [viol] when the
   step itself manifests a violation (I3 or I4).  Breaker events keep
   the placement; the others write it into [scratch] and intern it. *)
let successors ctx st scratch ~p ~rung ~brk f =
  let g = ctx.c_groups and b = ctx.c_breakers in
  let off = p * g in
  if b.b_open.(brk) then begin
    let brk' = b.b_cooloff.(brk) in
    if brk' < 0 then f ev_cooloff p rung brk true else f ev_cooloff p rung brk' false
  end
  else if st.s_flags.(p) land flag_link <> 0 then begin
    let ok = b.b_ok.(brk) and fail = b.b_fail.(brk) in
    f ev_link_ok p (rung_on ctx rung ~brk ~brk':ok) ok false;
    f ev_link_fail p (rung_on ctx rung ~brk ~brk':fail) fail false
  end;
  let target = rung * g in
  let groups = ctx.c_model.Model.m_groups in
  for i = 0 to Array.length ctx.c_risky - 1 do
    let gi = ctx.c_risky.(i) in
    let t = ctx.c_target.(target + gi) in
    if st.s_vecs.(off + gi) <> t then begin
      Array.blit st.s_vecs off scratch 0 g;
      scratch.(gi) <- t;
      f (4 + (2 * gi)) (intern ctx st scratch 0) rung brk (not groups.(gi).Model.g_truth_safe)
    end
  done;
  let rest = ctx.c_rest in
  let rec pending i =
    i < Array.length rest
    && (st.s_vecs.(off + rest.(i)) <> ctx.c_target.(target + rest.(i)) || pending (i + 1))
  in
  if pending 0 then begin
    Array.blit st.s_vecs off scratch 0 g;
    for i = 0 to Array.length rest - 1 do
      scratch.(rest.(i)) <- ctx.c_target.(target + rest.(i))
    done;
    f ev_migrate_rest (intern ctx st scratch 0) rung brk false
  end;
  for i = 0 to Array.length ctx.c_risky - 1 do
    let gi = ctx.c_risky.(i) in
    let h = groups.(gi).Model.g_promote.(rung) in
    if h >= 0 && st.s_vecs.(off + gi) = ctx.c_target.(target + gi) then begin
      Array.blit st.s_vecs off scratch 0 g;
      scratch.(gi) <- (h lsl 1) lor 1;
      f (5 + (2 * gi)) (intern ctx st scratch 0) rung brk true
    end
  done

(* --- Violations ------------------------------------------------------- *)

(* Violations are deduplicated per (code, subject); the key is an int,
   3 * (first index with the subject) + the code's tag. *)
let rung_key m rung =
  let name = m.Model.m_rung_names.(rung) in
  let rec first r = if String.equal m.Model.m_rung_names.(r) name then r else first (r + 1) in
  first 0

let step_key ctx ~rung ev =
  if ev = ev_cooloff then (3 * rung_key ctx.c_model rung) + 2
  else (3 * ctx.c_subject_key.((ev - 4) / 2)) + 1

(* The I3/I4 violation event [ev] manifests from a state on [rung]. *)
let step_violation ctx ~rung ev trace =
  let m = ctx.c_model in
  let name = m.Model.m_rung_names.(rung) in
  if ev = ev_cooloff then
    {
      vl_code = "CG010";
      vl_severity = Lint.Error;
      vl_subject = name;
      vl_message =
        Printf.sprintf "open breaker on rung %d (%s) admits no half-open probe at cooloff expiry"
          rung name;
      vl_trace = trace;
    }
  else
    let subject = m.Model.m_groups.((ev - 4) / 2).Model.g_subject in
    {
      vl_code = "CG009";
      vl_severity = Lint.Error;
      vl_subject = subject;
      vl_message =
        (if ev land 1 = 0 then
           Printf.sprintf
             "ladder table migrates %s live on rung %d (%s), but the static facts mark it unsafe"
             subject rung name
         else
           Printf.sprintf
             "ladder table promotes %s between pool hosts on rung %d (%s), but the static facts \
              mark it unsafe"
             subject rung name);
      vl_trace = trace;
    }

(* The I1 violation of strict edge [i], which placement [a]/[off]
   separates on [rung]. *)
let crossing_violation ctx a off ~rung i trace =
  let m = ctx.c_model in
  let e = m.Model.m_edges.(ctx.c_strict.(i)) in
  let va = a.(off + e.Model.e_a) and vb = a.(off + e.Model.e_b) in
  let sa = m.Model.m_groups.(e.Model.e_a).Model.g_subject
  and sb = m.Model.m_groups.(e.Model.e_b).Model.g_subject in
  let name = m.Model.m_rung_names.(rung) in
  {
    vl_code = "CG008";
    vl_severity = Lint.Error;
    vl_subject = e.Model.e_iface;
    vl_message =
      (if va land 1 <> vb land 1 then
         Printf.sprintf
           "reachable placement separates %s and %s across non-remotable %s (rung %d, %s)" sa sb
           e.Model.e_iface rung name
       else
         Printf.sprintf
           "reachable placement splits %s and %s across pool hosts %d/%d on non-remotable %s \
            (rung %d, %s)"
           sa sb (va lsr 1) (vb lsr 1) e.Model.e_iface rung name);
    vl_trace = trace;
  }

let rec recorded k = function
  | [] -> false
  | (k', _) :: rest -> k = k' || recorded k rest

(* --- The explorer ----------------------------------------------------- *)

(* One root's bounded BFS.  States are kept in admission order, four
   ints each — key, parent, event, depth — and the BFS queue is the
   suffix not yet expanded.  A state's key is
   [(placement * rungs + rung) * breakers + breaker]. *)
type subtree = {
  su_store : store;
  su_visited : int Int_table.t;  (* key -> state *)
  mutable su_states : int array;
  mutable su_count : int;
  su_scratch : int array;
  su_rungs : bool array;
  mutable su_transitions : int;
  mutable su_dedup_hits : int;
  mutable su_depth : int;
  mutable su_complete : bool;
  mutable su_violations : (int * violation) list;  (* first recorded per key *)
}

let state_key ctx ~p ~rung ~brk = (((p * ctx.c_rungs) + rung) * ctx.c_breakers.b_count) + brk

(* The events from the subtree's root to state [s], then [tail]. *)
let trace_to sub s tail =
  let rec go acc s =
    if s <= 0 then acc
    else go (event_of_code sub.su_states.((4 * s) + 2) :: acc) sub.su_states.((4 * s) + 1)
  in
  go tail s

let push sub k ~parent ~ev ~depth =
  let s = sub.su_count in
  if 4 * (s + 1) > Array.length sub.su_states then sub.su_states <- grown sub.su_states (4 * s) 0;
  let a = sub.su_states in
  a.(4 * s) <- k;
  a.((4 * s) + 1) <- parent;
  a.((4 * s) + 2) <- ev;
  a.((4 * s) + 3) <- depth;
  Int_table.replace sub.su_visited k s;
  sub.su_count <- s + 1;
  s

(* Record, first come first kept, every I1 violation of state [s] on
   [rung] at placement [p], whose flags say I1 is broken. *)
let record_crossings ctx sub s ~p ~rung =
  let st = sub.su_store and g = ctx.c_groups in
  let edges = ctx.c_model.Model.m_edges in
  for i = 0 to Array.length ctx.c_strict - 1 do
    let e = edges.(ctx.c_strict.(i)) in
    let k = 3 * ctx.c_strict_key.(i) in
    let a = st.s_vecs and off = p * g in
    if separated a.(off + e.Model.e_a) a.(off + e.Model.e_b) && not (recorded k sub.su_violations)
    then
      sub.su_violations <-
        (k, crossing_violation ctx a off ~rung i (trace_to sub s [])) :: sub.su_violations
  done

let admit ctx sub ~budget ~p ~rung ~brk ~parent ~ev ~depth =
  let b = ctx.c_breakers in
  if not b.b_on_chain.(brk) then
    ignore (Model.cooloff_index ctx.c_model b.b_snap.(brk).Health.sn_cooloff_us);
  let k = state_key ctx ~p ~rung ~brk in
  if Int_table.find sub.su_visited k >= 0 then sub.su_dedup_hits <- sub.su_dedup_hits + 1
  else begin
    let s = push sub k ~parent ~ev ~depth in
    sub.su_rungs.(rung) <- true;
    if depth > sub.su_depth then sub.su_depth <- depth;
    if sub.su_store.s_flags.(p) land flag_split <> 0 then record_crossings ctx sub s ~p ~rung;
    if depth >= budget then sub.su_complete <- false
  end

let record_step ctx sub s ~rung ev =
  let k = step_key ctx ~rung ev in
  if not (recorded k sub.su_violations) then
    sub.su_violations <-
      (k, step_violation ctx ~rung ev (trace_to sub s [ event_of_code ev ])) :: sub.su_violations

(* Initial capacity of a subtree's state tables: a breaker automaton's
   worth of states per rung.  Placements: one per rung, plus the
   initial one. *)
let state_capacity ctx = Int.max 8 (Int.min 1024 (ctx.c_breakers.b_count * ctx.c_rungs))

(* A subtree holding only the initial state, at index 0, placement 0. *)
let subtree_create ctx ~cap ~placements ~init =
  let sub =
    {
      su_store = store_create ctx placements;
      su_visited = Int_table.create ~absent:(-1) cap;
      su_states = Array.make (4 * cap) 0;
      su_count = 0;
      su_scratch = Array.make ctx.c_groups 0;
      su_rungs = Array.make ctx.c_rungs false;
      su_transitions = 1;
      su_dedup_hits = 0;
      su_depth = 0;
      su_complete = true;
      su_violations = [];
    }
  in
  ignore (intern ctx sub.su_store init 0);
  ignore (push sub (state_key ctx ~p:0 ~rung:0 ~brk:0) ~parent:(-1) ~ev:0 ~depth:0);
  sub

(* Explore the subtree of the initial state's [root]-th successor.
   The subtree's store and visited table are seeded with the initial
   state, which is never expanded: any state reachable only through it
   belongs to a sibling subtree. *)
let explore_subtree ctx ~budget ~init root =
  let cap = state_capacity ctx in
  let sub = subtree_create ctx ~cap ~placements:(Int.min cap (ctx.c_rungs + 1)) ~init in
  (* The root is the [root]-th event enabled at the initial state. *)
  let nth = ref 0 in
  successors ctx sub.su_store sub.su_scratch ~p:0 ~rung:0 ~brk:0 (fun ev p rung brk viol ->
      if !nth = root then begin
        if viol then record_step ctx sub 0 ~rung:0 ev;
        admit ctx sub ~budget ~p ~rung ~brk ~parent:0 ~ev ~depth:1
      end;
      incr nth);
  (* The state being expanded, read by [emit]. *)
  let cur = ref 0 and cur_rung = ref 0 and cur_depth = ref 0 in
  let emit ev p rung brk viol =
    sub.su_transitions <- sub.su_transitions + 1;
    if viol then record_step ctx sub !cur ~rung:!cur_rung ev;
    admit ctx sub ~budget ~p ~rung ~brk ~parent:!cur ~ev ~depth:(!cur_depth + 1)
  in
  let nb = ctx.c_breakers.b_count in
  let s = ref 1 in
  while !s < sub.su_count do
    let a = sub.su_states in
    let depth = a.((4 * !s) + 3) in
    if depth < budget then begin
      let k = a.(4 * !s) in
      let brk = k mod nb and pr = k / nb in
      let rung = pr mod ctx.c_rungs in
      cur := !s;
      cur_rung := rung;
      cur_depth := depth;
      successors ctx sub.su_store sub.su_scratch ~p:(pr / ctx.c_rungs) ~rung ~brk emit
    end;
    incr s
  done;
  sub

let trace_lt m a b =
  let la = List.length a and lb = List.length b in
  if la <> lb then la < lb
  else String.concat ";" (List.map (event_id m) a) < String.concat ";" (List.map (event_id m) b)

let default_depth = 40

let run ?(pool = Parallel.sequential) ?(depth = default_depth) m =
  if depth < 1 then invalid_arg "Verify.Explore.run: depth < 1";
  let ctx = context m in
  let g = ctx.c_groups and nb = ctx.c_breakers.b_count in
  let init = Array.sub ctx.c_target 0 g in
  if not ctx.c_breakers.b_on_chain.(0) then
    ignore (Model.cooloff_index m ctx.c_breakers.b_snap.(0).Health.sn_cooloff_us);
  (* The initial state's own I1 violations, and its successors: one
     subtree each.  Exploration always splits on them and merges
     deterministically, so the result is identical for any pool, the
     zero-worker default included ([Parallel.map] preserves input
     order). *)
  let top = subtree_create ctx ~cap:1 ~placements:1 ~init in
  if top.su_store.s_flags.(0) land flag_split <> 0 then record_crossings ctx top 0 ~p:0 ~rung:0;
  let roots = ref 0 in
  successors ctx top.su_store top.su_scratch ~p:0 ~rung:0 ~brk:0 (fun _ _ _ _ _ -> incr roots);
  let subtrees =
    Parallel.map_list pool ~f:(explore_subtree ctx ~budget:depth ~init) (List.init !roots Fun.id)
  in
  (* Distinct states across the subtrees: every subtree's placements
     are interned into the first one's store and its keys re-keyed
     into the first one's visited table. *)
  let states =
    match subtrees with
    | [] -> 1
    | first :: rest ->
        List.iter
          (fun s ->
            let own = s.su_store in
            let map =
              Array.init own.s_count (fun p -> intern ctx first.su_store own.s_vecs (p * g))
            in
            for i = 0 to s.su_count - 1 do
              let k = s.su_states.(4 * i) in
              let brk = k mod nb and pr = k / nb in
              let k = state_key ctx ~p:map.(pr / ctx.c_rungs) ~rung:(pr mod ctx.c_rungs) ~brk in
              ignore (Int_table.find_or_add first.su_visited k i)
            done)
          rest;
        Int_table.length first.su_visited
  in
  let rungs = Array.make (Model.rung_count m) false in
  rungs.(0) <- true;
  List.iter
    (fun s -> Array.iteri (fun i b -> if b then rungs.(i) <- true) s.su_rungs)
    subtrees;
  let viols =
    List.fold_left
      (fun acc s ->
        List.fold_left
          (fun acc (k, v) ->
            match List.assoc_opt k acc with
            | Some cur when not (trace_lt m v.vl_trace cur.vl_trace) -> acc
            | Some _ -> (k, v) :: List.remove_assoc k acc
            | None -> (k, v) :: acc)
          acc s.su_violations)
      top.su_violations subtrees
  in
  let violations =
    List.map snd viols
    |> List.sort (fun a b -> compare (a.vl_code, a.vl_subject) (b.vl_code, b.vl_subject))
  in
  {
    r_stats =
      {
        sr_states = states;
        sr_transitions = List.fold_left (fun a s -> a + s.su_transitions) 0 subtrees;
        sr_dedup_hits = List.fold_left (fun a s -> a + s.su_dedup_hits) 0 subtrees;
        sr_depth = List.fold_left (fun a s -> max a s.su_depth) 0 subtrees;
        sr_complete = List.for_all (fun s -> s.su_complete) subtrees;
        sr_rungs_reached = rungs;
      };
    r_violations = violations;
  }

(* --- Diagnostics ------------------------------------------------------ *)

let diagnostics m result =
  let of_violation v =
    let trace =
      match v.vl_trace with
      | [] -> "at the initial placement"
      | t -> Format.asprintf "via %a" (pp_trace m) t
    in
    Lint.diag v.vl_code v.vl_severity v.vl_subject (v.vl_message ^ " [" ^ trace ^ "]")
  in
  let unreached =
    let note =
      if result.r_stats.sr_complete then ""
      else " (exploration truncated at the depth bound)"
    in
    Array.to_list
      (Array.mapi
         (fun r reached ->
           if reached then None
           else
             Some
               (Lint.diag "CG010" Lint.Warning m.Model.m_rung_names.(r)
                  (Printf.sprintf "rung %d (%s) is never installed by any explored interleaving%s"
                     r m.Model.m_rung_names.(r) note)))
         result.r_stats.sr_rungs_reached)
    |> List.filter_map Fun.id
  in
  Lint.order (List.map of_violation result.r_violations @ unreached)

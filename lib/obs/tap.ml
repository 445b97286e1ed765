type kind = Call | Create

type obs = {
  ob_at_us : float;
  ob_kind : kind;
  ob_caller : int;
  ob_callee : int;
  ob_bytes : int;
}

type sink = obs Sink.t

let null_sink = Sink.null

type t = {
  t_sink : sink;
  t_null : bool;  (* [t_sink] is [Sink.null]: build no observation *)
  t_every : int;
  t_rng : Coign_util.Prng.t;
  mutable t_offered : int;
  mutable t_sampled : int;
}

let create ?(sample_every = 1) ?(seed = 0x7A9L) sink =
  if sample_every < 1 then
    invalid_arg "Tap.create: sample_every must be >= 1";
  {
    t_sink = sink;
    t_null = sink == Sink.null;
    t_every = sample_every;
    t_rng = Coign_util.Prng.create seed;
    t_offered = 0;
    t_sampled = 0;
  }

let accept t =
  t.t_offered <- t.t_offered + 1;
  (* Bernoulli 1-in-k from the tap's own seeded stream: which calls are
     sampled is deterministic for a given seed and offer sequence, and
     the decision draws from no PRNG shared with the run itself. *)
  t.t_every = 1 || Coign_util.Prng.int t.t_rng t.t_every = 0

let emit t ~at_us ~kind ~caller ~callee ~bytes =
  t.t_sampled <- t.t_sampled + 1;
  if not t.t_null then
    t.t_sink
      { ob_at_us = at_us; ob_kind = kind; ob_caller = caller; ob_callee = callee;
        ob_bytes = bytes }

let offered t = t.t_offered
let sampled t = t.t_sampled

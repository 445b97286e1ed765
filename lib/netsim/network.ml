type t = {
  net_name : string;
  latency_us : float;
  bandwidth_mbps : float;
  proc_us : float;
}

let make ~name ~latency_us ~bandwidth_mbps ~proc_us =
  if latency_us < 0. || bandwidth_mbps <= 0. || proc_us < 0. then
    invalid_arg "Network.make: nonsensical parameters";
  { net_name = name; latency_us; bandwidth_mbps; proc_us }

(* Inlined, so a caller's leg time stays an unboxed float. *)
let[@inline] message_us t ~bytes =
  assert (bytes >= 0);
  t.proc_us +. t.latency_us +. (float_of_int bytes *. 8. /. t.bandwidth_mbps)

(* Decomposition of [message_us] for queueing simulators: the protocol
   stack occupies a host CPU while the wire (propagation plus
   transmission) occupies the link, so the two components contend in
   different FIFO queues. [host_us + wire_us = message_us] up to float
   association. *)
let host_us t = t.proc_us

let wire_us t ~bytes =
  assert (bytes >= 0);
  t.latency_us +. (float_of_int bytes *. 8. /. t.bandwidth_mbps)

(* Per-message processing: the DCOM/RPC stack on two 200 MHz Pentiums
   costs on the order of half a millisecond per message end-to-end. *)
let ethernet_10 =
  make ~name:"10BaseT Ethernet" ~latency_us:100. ~bandwidth_mbps:10. ~proc_us:550.

let ethernet_100 =
  make ~name:"100BaseT Ethernet" ~latency_us:50. ~bandwidth_mbps:100. ~proc_us:500.

let isdn_128 = make ~name:"ISDN 128k" ~latency_us:5000. ~bandwidth_mbps:0.128 ~proc_us:550.

let atm_155 = make ~name:"ATM OC-3" ~latency_us:40. ~bandwidth_mbps:155. ~proc_us:500.

let san_1g = make ~name:"SAN 1Gbps" ~latency_us:10. ~bandwidth_mbps:1000. ~proc_us:120.

let loopback = { net_name = "loopback"; latency_us = 0.; bandwidth_mbps = 1e12; proc_us = 0. }

let presets = [ isdn_128; ethernet_10; ethernet_100; atm_155; san_1g ]

let geometric_sweep ?(points = 20) ~from_net ~to_net () =
  if points < 2 then invalid_arg "Network.geometric_sweep: need at least two points";
  (* Geometric interpolation matches how real links are spaced (ISDN to
     SAN spans four orders of magnitude of bandwidth); fall back to
     linear when an endpoint parameter is zero (loopback). *)
  let interp a b frac =
    if a <= 0. || b <= 0. then a +. ((b -. a) *. frac)
    else a *. ((b /. a) ** frac)
  in
  List.init points (fun i ->
      let frac = float_of_int i /. float_of_int (points - 1) in
      let bandwidth = interp from_net.bandwidth_mbps to_net.bandwidth_mbps frac in
      make
        ~name:(Printf.sprintf "sweep%02d %.3gMbps" i bandwidth)
        ~latency_us:(interp from_net.latency_us to_net.latency_us frac)
        ~bandwidth_mbps:bandwidth
        ~proc_us:(interp from_net.proc_us to_net.proc_us frac))

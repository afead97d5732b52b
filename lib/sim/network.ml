type category = Node | Client

(* The paper's testbed: 1 Gbps NICs per direction, 80 framing bytes per
   message, up to 2 ms of uniform extra propagation delay. *)
let bandwidth_bps = 1e9
let per_message_overhead = 80
let jitter = Time_ns.ms 2

type 'a endpoint = {
  category : category;
  datacenter : int;
  handler : src:int -> size:int -> 'a -> unit;
  (* NIC serialization horizons: time at which each NIC direction frees up.
     Nodes have two NICs (index 0 = private node<->node, 1 = public
     client-facing); clients only use index 0. *)
  tx_free : Time_ns.t array;
  rx_free : Time_ns.t array;
  mutable crashed : bool;
}

(* A message in flight, flattened into one mutable record instead of two
   nested closures.  The same record (and its single [k] closure) carries the
   message through both hops — arrival at the receiver NIC, then delivery —
   and is recycled through an uncapped freelist afterwards.  The freelist
   grows once to the peak number of messages in flight and then serves
   every send, so the steady-state send path allocates nothing: the engine
   events are anonymous ([Engine.post_at], recycled the same way) and the
   envelope is reused. *)
type 'a envelope = {
  mutable dst_ep : 'a endpoint;
  mutable env_src : int;
  mutable env_size : int;
  mutable payload : 'a;
  mutable serialize : Time_ns.span;
  mutable rx_nic : int;
  mutable delivering : bool;  (* false = in flight, true = in receiver NIC *)
  mutable env_next : 'a envelope;  (* intrusive freelist link *)
  mutable k : unit -> unit;  (* advances this envelope; allocated once *)
}

type 'a t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable endpoints : 'a endpoint array;  (* by id; unused ids hold [env_nil.dst_ep] *)
  mutable partition : (int -> int) option;
  mutable drop_prob : float;
  mutable link_latency : (int -> int -> Time_ns.span) option;
  mutable n_sent : int;
  mutable total_bytes : int;
  env_nil : 'a envelope;  (* freelist sentinel, never a real message *)
  mutable env_free : 'a envelope;
  (* One-entry serialization-time memo: protocol traffic is dominated by a
     handful of repeated sizes (batches, votes), and multicast repeats the
     same size n-1 times back to back, so this removes nearly every
     float division + boxing from the hot path. *)
  mutable tt_bytes : int;
  mutable tt_span : Time_ns.span;
}

let noop_handler ~src:_ ~size:_ _ = ()
let noop () = ()

let make_env_nil () =
  let dummy =
    {
      category = Node;
      datacenter = 0;
      handler = noop_handler;
      tx_free = [| Time_ns.zero |];
      rx_free = [| Time_ns.zero |];
      crashed = true;
    }
  in
  let rec nil =
    {
      dst_ep = dummy;
      env_src = 0;
      env_size = 0;
      (* The sentinel's payload is never read; an immediate keeps it from
         pinning any real ['a] value. *)
      payload = Obj.magic 0;
      serialize = 0;
      rx_nic = 0;
      delivering = false;
      env_next = nil;
      k = noop;
    }
  in
  nil

let create engine ~rng =
  let env_nil = make_env_nil () in
  {
    engine;
    rng;
    endpoints = [||];
    partition = None;
    drop_prob = 0.0;
    link_latency = None;
    n_sent = 0;
    total_bytes = 0;
    env_nil;
    env_free = env_nil;
    tt_bytes = -1;
    tt_span = 0;
  }

let registered t id =
  id >= 0 && id < Array.length t.endpoints && t.endpoints.(id) != t.env_nil.dst_ep

let add_endpoint t ~id ~category ~datacenter ~handler =
  if id < 0 || registered t id then invalid_arg "Network.add_endpoint: bad or duplicate id";
  let len = Array.length t.endpoints in
  if id >= len then
    t.endpoints <-
      Array.init (max (id + 1) (2 * len)) (fun i ->
          if i < len then t.endpoints.(i) else t.env_nil.dst_ep);
  t.endpoints.(id) <-
    {
      category;
      datacenter;
      handler;
      tx_free = [| Time_ns.zero; Time_ns.zero |];
      rx_free = [| Time_ns.zero; Time_ns.zero |];
      crashed = false;
    }

let endpoint t id =
  if registered t id then t.endpoints.(id)
  else invalid_arg (Printf.sprintf "Network: unknown endpoint %d" id)

(* Which NIC a node uses depends on who it talks to: private (0) for other
   nodes, public (1) for clients.  Clients have a single NIC. *)
let nic_index ep ~peer_category =
  match (ep.category, peer_category) with
  | Node, Node -> 0
  | Node, Client -> 1
  | Client, _ -> 0

let transmission_time t bytes =
  if bytes = t.tt_bytes then t.tt_span
  else begin
    let span = Time_ns.of_sec_f (float_of_int (bytes * 8) /. bandwidth_bps) in
    t.tt_bytes <- bytes;
    t.tt_span <- span;
    span
  end

let partitioned t src dst =
  match t.partition with
  | None -> false
  | Some group -> group src <> group dst

let release_env t env =
  (* Drop the payload so a parked envelope doesn't pin a delivered
     message's data until its next reuse. *)
  env.payload <- Obj.magic 0;
  env.env_next <- t.env_free;
  t.env_free <- env

(* Both hops of a message, driven by the envelope's own [k] closure.
   Hop 1 (arrival): receiver-side NIC serialization — re-check crash state,
   the receiver may have crashed while the message was in flight.
   Hop 2 (delivery): hand to the handler, re-checking crash state again. *)
let advance_env t env =
  let de = env.dst_ep in
  if env.delivering then begin
    if not de.crashed then de.handler ~src:env.env_src ~size:env.env_size env.payload;
    release_env t env
  end
  else if de.crashed then release_env t env
  else begin
    let now = Engine.now t.engine in
    let deliver =
      Time_ns.add (Time_ns.max now de.rx_free.(env.rx_nic)) env.serialize
    in
    de.rx_free.(env.rx_nic) <- deliver;
    env.delivering <- true;
    Engine.post_at t.engine ~at:deliver env.k
  end

let alloc_env t ~dst_ep ~src ~size ~payload ~serialize ~rx_nic =
  let env = t.env_free in
  if env != t.env_nil then begin
    t.env_free <- env.env_next;
    env.env_next <- t.env_nil;
    env.dst_ep <- dst_ep;
    env.env_src <- src;
    env.env_size <- size;
    env.payload <- payload;
    env.serialize <- serialize;
    env.rx_nic <- rx_nic;
    env.delivering <- false;
    env
  end
  else begin
    let env =
      {
        dst_ep;
        env_src = src;
        env_size = size;
        payload;
        serialize;
        rx_nic;
        delivering = false;
        env_next = t.env_nil;
        k = noop;
      }
    in
    env.k <- (fun () -> advance_env t env);
    env
  end

(* Per-destination tail of [send], with the sender-side invariants
   (endpoint lookup, crash check, wire size, serialization time) hoisted so
   [multicast] pays them once for n-1 copies. *)
let send_prepared t se ~src ~dst ~size ~wire_bytes ~serialize payload =
  let de = endpoint t dst in
  t.n_sent <- t.n_sent + 1;
  t.total_bytes <- t.total_bytes + wire_bytes;
  (* Lost in transit: severed path or random drop.  (A crashed receiver is
     handled at arrival time instead — the message may still find the
     endpoint up again if it recovers while the message is in flight.) *)
  let lost =
    partitioned t src dst
    || (t.drop_prob > 0.0 && Rng.float t.rng 1.0 < t.drop_prob)
  in
  (* Even a lost message consumes sender bandwidth. *)
  let now = Engine.now t.engine in
  let tx_nic = nic_index se ~peer_category:de.category in
  let depart = Time_ns.add (Time_ns.max now se.tx_free.(tx_nic)) serialize in
  se.tx_free.(tx_nic) <- depart;
  if not lost then begin
    let prop = Topology.latency se.datacenter de.datacenter in
    let jit = Rng.int t.rng jitter in
    let spike = match t.link_latency with Some f -> f src dst | None -> 0 in
    let arrive = Time_ns.add depart (prop + jit + spike) in
    let env =
      alloc_env t ~dst_ep:de ~src ~size ~payload ~serialize
        ~rx_nic:(nic_index de ~peer_category:se.category)
    in
    Engine.post_at t.engine ~at:arrive env.k
  end

let send t ~src ~dst ~size payload =
  let se = endpoint t src in
  (* Only a crashed *sender* suppresses the send entirely (a dead process
     emits nothing).  The sender cannot know that the destination is crashed
     or partitioned away: it still serializes the message through its NIC
     and the send still counts; only the delivery is suppressed. *)
  if not se.crashed then begin
    let wire_bytes = size + per_message_overhead in
    send_prepared t se ~src ~dst ~size ~wire_bytes
      ~serialize:(transmission_time t wire_bytes) payload
  end

let multicast t ~src ~dsts ~size payload =
  match dsts with
  | [] -> ()
  | _ ->
      let se = endpoint t src in
      if not se.crashed then begin
        let wire_bytes = size + per_message_overhead in
        let serialize = transmission_time t wire_bytes in
        List.iter
          (fun dst -> send_prepared t se ~src ~dst ~size ~wire_bytes ~serialize payload)
          dsts
      end

let charge t ~endpoint:id ~dir ~peer ~bytes =
  let ep = endpoint t id in
  let nic = nic_index ep ~peer_category:peer in
  let now = Engine.now t.engine in
  let serialize = transmission_time t bytes in
  let horizon = match dir with `Tx -> ep.tx_free | `Rx -> ep.rx_free in
  let free_at = Time_ns.add (Time_ns.max now horizon.(nic)) serialize in
  horizon.(nic) <- free_at;
  Time_ns.diff free_at now

let nic_backlog t ~endpoint:id ~dir ~peer =
  let ep = endpoint t id in
  let nic = nic_index ep ~peer_category:peer in
  let horizon = (match dir with `Tx -> ep.tx_free | `Rx -> ep.rx_free).(nic) in
  Time_ns.max 0 (Time_ns.diff horizon (Engine.now t.engine))

let crash t id = (endpoint t id).crashed <- true

let recover t id =
  let ep = endpoint t id in
  if ep.crashed then begin
    ep.crashed <- false;
    (* A rebooted host starts with idle NICs: whatever serialization backlog
       the endpoint had accumulated before the crash died with it.  Without
       this reset a node that crashed while its NIC horizon was far in the
       future would come back up unable to send or receive until the stale
       horizon passed. *)
    let now = Engine.now t.engine in
    for nic = 0 to Array.length ep.tx_free - 1 do
      ep.tx_free.(nic) <- now;
      ep.rx_free.(nic) <- now
    done
  end

let set_partition t p = t.partition <- p
let set_drop_probability t p = t.drop_prob <- p
let set_link_latency t f = t.link_latency <- f
let messages_sent t = t.n_sent
let bytes_sent t = t.total_bytes

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

(* A message in flight: one pooled record per send, however many
   destinations it has.  It holds what every copy shares — payload, source,
   size, serialization time — and a min-heap of per-destination entries,
   three ints each: the entry's next firing time, its seq, and
   [dst lsl 1 lor hop] (hop 0 = on the wire, 1 = in the receiver's NIC).
   The record owns one engine event ([ev], whose closure is allocated
   once) and keeps it queued at its least entry, so each hop of each copy
   is one engine event, fired at the (time, seq) a posted event per copy
   and hop would hold: every seq is drawn from the engine at the moment
   such a post would draw it (DESIGN.md §11).  Records are recycled
   through an uncapped freelist that grows once to the peak number in
   flight, so a warm send or broadcast allocates nothing. *)
type 'a msg = {
  mutable payload : 'a;
  mutable src : int;
  mutable size : int;
  mutable serialize : Time_ns.span;
  mutable entries : int array;  (* heap of (time, seq, dst lsl 1 lor hop) *)
  mutable len : int;  (* entries in the heap *)
  mutable ev : Engine.owned;
  mutable next_free : 'a msg;  (* intrusive freelist link *)
}

type 'a t = {
  engine : Engine.t;
  rng : Rng.t;
  mutable endpoints : 'a endpoint array;  (* by id; unused ids hold [no_endpoint] *)
  no_endpoint : 'a endpoint;
  mutable partition : (int -> int) option;
  mutable drop_prob : float;
  mutable link_latency : (int -> int -> Time_ns.span) option;
  mutable n_sent : int;
  mutable total_bytes : int;
  msg_nil : 'a msg;  (* freelist sentinel, never a real message *)
  mutable msg_free : 'a msg;
  (* One-entry serialization-time memo: protocol traffic is dominated by a
     handful of repeated sizes (batches, votes), so this removes nearly
     every float division + boxing from the hot path. *)
  mutable tt_bytes : int;
  mutable tt_span : Time_ns.span;
}

let noop_handler ~src:_ ~size:_ _ = ()
let noop () = ()

let create engine ~rng =
  let no_endpoint =
    {
      category = Node;
      datacenter = 0;
      handler = noop_handler;
      tx_free = [| Time_ns.zero |];
      rx_free = [| Time_ns.zero |];
      crashed = true;
    }
  in
  let rec msg_nil =
    {
      (* The sentinel's payload is never read; an immediate keeps it from
         pinning any real ['a] value. *)
      payload = Obj.magic 0;
      src = 0;
      size = 0;
      serialize = 0;
      entries = [||];
      len = 0;
      ev = Engine.own noop;
      next_free = msg_nil;
    }
  in
  {
    engine;
    rng;
    endpoints = [||];
    no_endpoint;
    partition = None;
    drop_prob = 0.0;
    link_latency = None;
    n_sent = 0;
    total_bytes = 0;
    msg_nil;
    msg_free = msg_nil;
    tt_bytes = -1;
    tt_span = 0;
  }

let registered t id =
  id >= 0 && id < Array.length t.endpoints && t.endpoints.(id) != t.no_endpoint

let add_endpoint t ~id ~category ~datacenter ~handler =
  if id < 0 || registered t id then invalid_arg "Network.add_endpoint: bad or duplicate id";
  let len = Array.length t.endpoints in
  if id >= len then
    t.endpoints <-
      Array.init (max (id + 1) (2 * len)) (fun i ->
          if i < len then t.endpoints.(i) else t.no_endpoint);
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

(* ------------------------------------------------------------------ *)
(* The entry heap: strict (time, seq) order, the engine's own. *)

let less e i j =
  let ti = e.(3 * i) and tj = e.(3 * j) in
  ti < tj || (ti = tj && e.(3 * i + 1) < e.(3 * j + 1))

(* Move entry [i] down to its place, shifting the smaller children up. *)
let sift_down e len i =
  let time = e.(3 * i) and seq = e.(3 * i + 1) and tag = e.(3 * i + 2) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 in
      let c = if r < len && less e r l then r else l in
      let tc = e.(3 * c) in
      if tc < time || (tc = time && e.(3 * c + 1) < seq) then begin
        e.(3 * !i) <- tc;
        e.(3 * !i + 1) <- e.(3 * c + 1);
        e.(3 * !i + 2) <- e.(3 * c + 2);
        i := c
      end
      else continue := false
    end
  done;
  e.(3 * !i) <- time;
  e.(3 * !i + 1) <- seq;
  e.(3 * !i + 2) <- tag

(* Queue the record at its least entry, or retire it when none is left. *)
let requeue t m =
  if m.len = 0 then begin
    (* Drop the payload so a parked record doesn't pin a delivered
       message's data until its next reuse. *)
    m.payload <- Obj.magic 0;
    m.next_free <- t.msg_free;
    t.msg_free <- m
  end
  else Engine.place t.engine m.ev ~at:m.entries.(0) ~seq:m.entries.(1)

(* Drop the least entry: its destination is done with the message. *)
let retire_head t m =
  let e = m.entries and last = m.len - 1 in
  m.len <- last;
  if last > 0 then begin
    e.(0) <- e.(3 * last);
    e.(1) <- e.(3 * last + 1);
    e.(2) <- e.(3 * last + 2);
    sift_down e last 0
  end;
  requeue t m

(* One hop of the least entry.  Arrival: receiver-side NIC serialization,
   after re-checking crash state (the receiver may have crashed while the
   message was in flight); the delivery seq is drawn now, as a post would.
   Delivery: hand to the handler, re-checking crash state again. *)
let fire t m =
  let e = m.entries in
  let tag = e.(2) in
  let de = t.endpoints.(tag lsr 1) in
  if tag land 1 = 1 then begin
    let src = m.src and size = m.size and payload = m.payload in
    (* Requeued (or recycled) first: the handler's own sends may reuse it. *)
    retire_head t m;
    if not de.crashed then de.handler ~src ~size payload
  end
  else if de.crashed then retire_head t m
  else begin
    let nic = nic_index de ~peer_category:t.endpoints.(m.src).category in
    let now = Engine.now t.engine in
    let deliver = Time_ns.add (Time_ns.max now de.rx_free.(nic)) m.serialize in
    de.rx_free.(nic) <- deliver;
    e.(0) <- deliver;
    e.(1) <- Engine.draw_seq t.engine;
    e.(2) <- tag lor 1;
    sift_down e m.len 0;
    requeue t m
  end

let alloc t ~src ~size ~fanout payload =
  let m =
    if t.msg_free != t.msg_nil then begin
      let m = t.msg_free in
      t.msg_free <- m.next_free;
      m.next_free <- t.msg_nil;
      m
    end
    else begin
      let m =
        {
          payload;
          src;
          size;
          serialize = 0;
          entries = [||];
          len = 0;
          ev = t.msg_nil.ev;
          next_free = t.msg_nil;
        }
      in
      m.ev <- Engine.own (fun () -> fire t m);
      m
    end
  in
  m.payload <- payload;
  m.src <- src;
  m.size <- size;
  m.serialize <- transmission_time t (size + per_message_overhead);
  if Array.length m.entries < 3 * fanout then m.entries <- Array.make (3 * fanout) 0;
  m

(* Put one copy of [m] on the wire towards [dst]: the per-destination half
   of a send.  Only a crashed *sender* suppresses a send entirely (a dead
   process emits nothing; the caller checks).  The sender cannot know that
   the destination is crashed or partitioned away: it still serializes the
   copy through its NIC and the copy still counts; only the delivery is
   suppressed. *)
let transmit t m se de ~dst =
  let wire_bytes = m.size + per_message_overhead in
  t.n_sent <- t.n_sent + 1;
  t.total_bytes <- t.total_bytes + wire_bytes;
  (* Lost in transit: severed path or random drop.  (A crashed receiver is
     handled at arrival time instead — the message may still find the
     endpoint up again if it recovers while the message is in flight.) *)
  let lost =
    partitioned t m.src dst || (t.drop_prob > 0.0 && Rng.float t.rng 1.0 < t.drop_prob)
  in
  (* Even a lost message consumes sender bandwidth. *)
  let now = Engine.now t.engine in
  let tx_nic = nic_index se ~peer_category:de.category in
  let depart = Time_ns.add (Time_ns.max now se.tx_free.(tx_nic)) m.serialize in
  se.tx_free.(tx_nic) <- depart;
  if not lost then begin
    let prop = Topology.latency se.datacenter de.datacenter in
    let jit = Rng.int t.rng jitter in
    let spike = match t.link_latency with Some f -> f m.src dst | None -> 0 in
    let i = 3 * m.len in
    m.entries.(i) <- Time_ns.add depart (prop + jit + spike);
    m.entries.(i + 1) <- Engine.draw_seq t.engine;
    m.entries.(i + 2) <- dst lsl 1;
    m.len <- m.len + 1
  end

(* Entries were appended in dst order; make them a heap and queue. *)
let dispatch t m =
  for i = (m.len / 2) - 1 downto 0 do
    sift_down m.entries m.len i
  done;
  requeue t m

let send t ~src ~dst ~size payload =
  let se = endpoint t src in
  if not se.crashed then begin
    let de = endpoint t dst in
    let m = alloc t ~src ~size ~fanout:1 payload in
    transmit t m se de ~dst;
    dispatch t m
  end

let broadcast t ~src ~size payload =
  let se = endpoint t src in
  if not se.crashed then begin
    let eps = t.endpoints in
    let m = alloc t ~src ~size ~fanout:(Array.length eps) payload in
    for dst = 0 to Array.length eps - 1 do
      let de = eps.(dst) in
      match de.category with
      | Node when dst <> src && de != t.no_endpoint -> transmit t m se de ~dst
      | Node | Client -> ()
    done;
    dispatch t m
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

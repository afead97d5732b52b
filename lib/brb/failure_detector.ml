module Time_ns = Sim.Time_ns
module Engine = Sim.Engine

type peer = { mutable timeout : Time_ns.span; timer : Engine.Timer.t; mutable suspected : bool }

type t = {
  n : int;
  me : Proto.Ids.node_id;
  send : dst:Proto.Ids.node_id -> Brb_msg.t -> unit;
  beat_interval : Time_ns.span;
  peers : peer array;
  mutable suspect_listeners : (Proto.Ids.node_id -> unit) list;
  mutable restore_listeners : (Proto.Ids.node_id -> unit) list;
  beat_timer : Engine.Timer.t;
  mutable running : bool;
}

let create ~engine ~n ~me ~send ?(beat_interval = Time_ns.ms 500)
    ?(initial_timeout = Time_ns.sec 2) () =
  {
    n;
    me;
    send;
    beat_interval;
    peers =
      Array.init n (fun _ ->
          { timeout = initial_timeout; timer = Engine.Timer.create engine; suspected = false });
    suspect_listeners = [];
    restore_listeners = [];
    beat_timer = Engine.Timer.create engine;
    running = false;
  }

let on_suspect t f = t.suspect_listeners <- f :: t.suspect_listeners
let on_restore t f = t.restore_listeners <- f :: t.restore_listeners

let suspected t p = t.peers.(p).suspected
let suspects t = List.filter (fun p -> t.peers.(p).suspected) (List.init t.n (fun i -> i))

let arm_peer t p =
  let peer = t.peers.(p) in
  Engine.Timer.arm peer.timer ~delay:peer.timeout (fun () ->
      if t.running && not peer.suspected then begin
        peer.suspected <- true;
        (* Doubling keeps eventual weak accuracy: post-GST the timeout
           outgrows the network delay and stops firing for correct peers. *)
        peer.timeout <- peer.timeout * 2;
        List.iter (fun f -> f p) t.suspect_listeners
      end)

let rec arm_beat t =
  Engine.Timer.arm t.beat_timer ~delay:t.beat_interval (fun () ->
      if t.running then begin
        for dst = 0 to t.n - 1 do
          if dst <> t.me then t.send ~dst Brb_msg.Fd_beat
        done;
        arm_beat t
      end)

let start t =
  if not t.running then begin
    t.running <- true;
    for p = 0 to t.n - 1 do
      if p <> t.me then arm_peer t p
    done;
    for dst = 0 to t.n - 1 do
      if dst <> t.me then t.send ~dst Brb_msg.Fd_beat
    done;
    arm_beat t
  end

let on_message t ~src msg =
  match msg with
  | Brb_msg.Fd_beat ->
      if t.running && src <> t.me && src >= 0 && src < t.n then begin
        let peer = t.peers.(src) in
        if peer.suspected then begin
          peer.suspected <- false;
          List.iter (fun f -> f src) t.restore_listeners
        end;
        arm_peer t src
      end
  | _ -> ()

let stop t =
  t.running <- false;
  Engine.Timer.cancel t.beat_timer;
  Array.iter (fun p -> Engine.Timer.cancel p.timer) t.peers

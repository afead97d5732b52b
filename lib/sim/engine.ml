module Q = Event_queue

type timer_id = Q.event
type owned = Q.event

type t = {
  queue : Q.t;
  mutable clock : Time_ns.t;
  mutable executed : int;
}

let create () = { queue = Q.create (); clock = Time_ns.zero; executed = 0 }
let now t = t.clock

let schedule_at t ~at action =
  let at = if at < t.clock then t.clock else at in
  Q.add t.queue ~time:at action

let schedule t ~delay action =
  let delay = if delay < 0 then 0 else delay in
  schedule_at t ~at:(Time_ns.add t.clock delay) action

let post_at t ~at action =
  let at = if at < t.clock then t.clock else at in
  Q.add_anon t.queue ~time:at action

let post t ~delay action =
  let delay = if delay < 0 then 0 else delay in
  post_at t ~at:(Time_ns.add t.clock delay) action

let own action = Q.own action
let draw_seq t = Q.draw_seq t.queue
let place t ev ~at ~seq = Q.add_owned t.queue ev ~time:at ~seq

let cancel t ev = Q.cancel t.queue ev
let pending t = Q.live t.queue

let step t =
  let ev = Q.pop t.queue in
  if ev == Q.nil then false
  else begin
    (* The guard matters after a [run ~until] parked the clock past the
       last executed event: a same-instant event scheduled right at the
       limit must not move time backwards. *)
    if ev.Q.time > t.clock then t.clock <- ev.Q.time;
    let action = ev.Q.action in
    (* Recycles an anonymous record; leaves an owned one, and its action,
       to its owner, who may place it again from inside [action]. *)
    Q.release t.queue ev;
    t.executed <- t.executed + 1;
    action ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        let ev = Q.peek t.queue in
        if ev != Q.nil && ev.Q.time <= limit then ignore (step t)
        else begin
          (* Clamp, don't assign: a later [run ~until] with an *earlier*
             limit must never rewind the clock below where a previous run
             already advanced it. *)
          if limit > t.clock then t.clock <- limit;
          continue := false
        end
      done

let events_executed t = t.executed

module Timer = struct
  type engine = t

  type t = {
    engine : engine;
    mutable pending : Q.event;  (* [Q.nil] while disarmed *)
    mutable action : unit -> unit;
    mutable fire : unit -> unit;  (* allocated once: disarms, runs [action] *)
  }

  let create engine =
    let t = { engine; pending = Q.nil; action = ignore; fire = ignore } in
    t.fire <-
      (fun () ->
        t.pending <- Q.nil;
        t.action ());
    t

  let cancel t =
    if t.pending != Q.nil then begin
      Q.cancel t.engine.queue t.pending;
      t.pending <- Q.nil
    end

  let arm t ~delay action =
    cancel t;
    t.action <- action;
    t.pending <- schedule t.engine ~delay t.fire

  let armed t = t.pending != Q.nil
end

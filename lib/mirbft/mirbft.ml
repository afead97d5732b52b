type t = {
  clock : Core.Orderer_intf.Clock.t;
  n : int;
  id : Proto.Ids.node_id;
  send : dst:int -> Proto.Message.t -> unit;
  timeout : Sim.Time_ns.span;
  announced : (int, unit) Hashtbl.t;  (* epochs whose announcement arrived *)
  mutable waiting : (int * (unit -> unit)) option;
}

let create ~clock ~n ~id ~send ~timeout =
  { clock; n; id; send; timeout; announced = Hashtbl.create 16; waiting = None }

let primary_of_epoch ~n ~epoch = epoch mod n

let release t epoch =
  match t.waiting with
  | Some (e, k) when e = epoch ->
      t.waiting <- None;
      k ()
  | Some _ | None -> ()

let epoch_gate t ~epoch k =
  if Hashtbl.mem t.announced epoch then k ()
  else begin
    t.waiting <- Some (epoch, k);
    let primary = primary_of_epoch ~n:t.n ~epoch in
    if primary = t.id then begin
      (* I am the epoch primary: announce the configuration to everyone else
         and proceed myself. *)
      for dst = 0 to t.n - 1 do
        if dst <> t.id then
          t.send ~dst (Proto.Message.Mir_epoch_change { epoch; primary = t.id })
      done;
      Hashtbl.replace t.announced epoch ();
      release t epoch
    end;
    (* Ungraceful epoch change: if the primary stays quiet, proceed after
       the epoch-change timeout. *)
    t.clock.post ~delay:t.timeout (fun () ->
        match t.waiting with
        | Some (e, _) when e = epoch ->
            Hashtbl.replace t.announced epoch ();
            release t epoch
        | Some _ | None -> ())
  end

let on_message t ~src:_ msg =
  match msg with
  | Proto.Message.Mir_epoch_change { epoch; primary } ->
      if primary = primary_of_epoch ~n:t.n ~epoch then begin
        Hashtbl.replace t.announced epoch ();
        release t epoch
      end;
      true
  | _ -> false

(** PBFT wire messages (Castro–Liskov), adapted to SB segments (paper §4.2.1).

    Every message carries the SB [instance] it belongs to; one PBFT instance
    runs per segment.  View changes are signed (the paper follows the
    signature-based variant of PBFT's view change for simplicity). *)

type prepared_cert = {
  sn : int;
  view : int;
  proposal : Proposal.t;
      (** The full proposal is included so a new leader can re-propose it;
          the real protocol ships the batch or fetches it by digest —
          equivalent bytes either way. *)
}

type view_change = {
  new_view : int;
  prepared : prepared_cert list;  (** entries prepared by the sender *)
  vc_signer : Ids.node_id;
  vc_sig : Iss_crypto.Signature.signature;
}

type body =
  | Preprepare of { view : int; sn : int; proposal : Proposal.t }
  | Prepare of { view : int; sn : int; digest : Iss_crypto.Hash.t }
  | Commit of { view : int; sn : int; digest : Iss_crypto.Hash.t }
  | View_change of view_change
  | New_view of {
      view : int;
      view_changes : view_change list;  (** quorum justifying the new view *)
      preprepares : (int * Proposal.t) list;
          (** what the new leader (re-)proposes: prepared values, ⊥ elsewhere *)
    }
  | Fill_request of { sns : int list }
      (** Slot recovery (negative acknowledgment): sent by a replica whose
          instance has stalled with these sequence numbers uncommitted, e.g.
          because commit votes were lost and too few peers remain unfinished
          to drive a view change. *)
  | Fill of { sn : int; view : int; proposal : Proposal.t }
      (** Answer to {!Fill_request}: the value the sender committed at [sn].
          The asker adopts it once f+1 distinct peers report the same value
          (at least one of them is correct, so the value really committed). *)

type t = { instance : int; body : body }

val view_change_material :
  instance:int -> new_view:int -> vc_signer:Ids.node_id -> prepared_cert list -> string
(** Canonical byte string a view-change signature covers: every field of
    {!view_change} but the signature itself. *)

val wire_size : t -> int
val pp : Format.formatter -> t -> unit

(** Byzantine adversary proxy (DESIGN.md §10).

    A man-in-the-middle wrapped around each node's raw network send path by
    {!Cluster} — but only once a fault schedule configures an attack;
    unconfigured clusters never construct one and their send path is
    untouched (zero perturbation, checked by fingerprint equality in the
    conformance harness).

    The attacked node itself keeps executing honest protocol code; only its
    {e outgoing} traffic is rewritten.  This models the strongest practical
    equivocator: internally consistent, externally lying.  All rewrites are
    deterministic functions of the message stream, so Byzantine runs replay
    bit-identically from their scenario. *)

type attack =
  | Equivocate
      (** Send conflicting proposals for the same (instance, sn) to disjoint
          receiver subsets sized so that neither subset plus the attacker
          reaches a quorum; remaining receivers get nothing. *)
  | Censor of { buckets : int list }
      (** Filter requests of the given buckets out of outgoing proposals
          ([buckets = []] censors {e every} request). *)
  | Corrupt_sig
      (** Wrap every outgoing control message in {!Proto.Message.Garbled}:
          its authenticator fails verification at the receiver. *)
  | Replay
      (** Re-inject previously sent protocol messages and previously batched
          client requests alongside genuine traffic. *)
  | Bad_checkpoint
      (** Corrupt the state root in outgoing checkpoint votes and
          state-transfer certificates, re-signing the corrupted material
          with the attacker's own key. *)

type t

val create : n:int -> config:Core.Config.t -> t

val set_attack : t -> node:int -> attack option -> unit
(** Open ([Some _]) or close ([None]) a node's attack window. *)

val fabricated_request : attacker:int -> sn:int -> Proto.Request.t
(** The request an equivocating [attacker] invents for an empty proposal at
    [sn]: client 999,983's next request, signed with the attacker's own key
    instead of the client's. *)

val active : t -> node:int -> attack option

val route : t -> src:int -> dst:int -> Proto.Message.t -> (int * Proto.Message.t) list
(** Rewrite one outgoing transmission: returns the (destination, message)
    pairs to put on the wire instead.  Identity for nodes with no active
    attack. *)

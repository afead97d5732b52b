type protocol = PBFT | HotStuff | Raft

type leader_policy_kind =
  | Simple
  | Backoff
  | Blacklist
  | Fixed of Proto.Ids.node_id list
  | Straggler_aware

type shed_policy = Reject_new | Drop_oldest
type admission = Unbounded | Bounded of { capacity : int; shed : shed_policy }

type t = {
  protocol : protocol;
  n : int;
  leader_policy : leader_policy_kind;
  buckets_per_leader : int;
  max_batch_size : int;
  batch_rate : float option;
  min_batch_timeout : Sim.Time_ns.span;
  max_batch_timeout : Sim.Time_ns.span;
  min_epoch_length : int;
  min_segment_size : int;
  epoch_change_timeout : Sim.Time_ns.span;
  admission : admission;
}

let client_watermark_window = 512

let num_buckets t = t.buckets_per_leader * t.n

let epoch_length t ~leaders = max t.min_epoch_length (leaders * t.min_segment_size)

let client_signatures t = match t.protocol with PBFT | HotStuff -> true | Raft -> false

let max_faulty t = Proto.Ids.max_faulty ~n:t.n
let strong_quorum t = Proto.Ids.quorum ~n:t.n
let reply_quorum t = match t.protocol with Raft -> 1 | PBFT | HotStuff -> max_faulty t + 1

let base ~n ~protocol =
  {
    protocol;
    n;
    leader_policy = Blacklist;
    buckets_per_leader = 16;
    max_batch_size = 2048;
    batch_rate = Some 32.0;
    min_batch_timeout = 0;
    max_batch_timeout = Sim.Time_ns.sec 4;
    min_epoch_length = 256;
    min_segment_size = 2;
    epoch_change_timeout = Sim.Time_ns.sec 10;
    admission = Unbounded;
  }

(* Table 1 presets. *)
let pbft_default ~n = base ~n ~protocol:PBFT

let hotstuff_default ~n =
  {
    (base ~n ~protocol:HotStuff) with
    max_batch_size = 4096;
    batch_rate = None;
    min_batch_timeout = 0;
    max_batch_timeout = 0;
    min_segment_size = 16;
  }

let raft_default ~n =
  {
    (base ~n ~protocol:Raft) with
    max_batch_size = 4096;
    min_segment_size = 16;
    (* Raft needs a batch timeout longer than a WAN round trip to avoid
       re-sending proposals before they are acknowledged (§6.2). *)
    min_batch_timeout = Sim.Time_ns.ms 600;
  }

let default_for protocol ~n =
  match protocol with
  | PBFT -> pbft_default ~n
  | HotStuff -> hotstuff_default ~n
  | Raft -> raft_default ~n

let validate t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.n <= 0 then fail "n must be positive (got %d)" t.n
  else if t.protocol <> Raft && t.n < 4 && t.n <> 1 then
    fail "BFT protocols need n >= 4 (or n = 1 for local testing); got %d" t.n
  else if t.buckets_per_leader <= 0 then fail "buckets_per_leader must be positive"
  else if t.max_batch_size <= 0 then fail "max_batch_size must be positive"
  else if t.min_epoch_length <= 0 then fail "min_epoch_length must be positive"
  else if t.min_segment_size <= 0 then fail "min_segment_size must be positive"
  else if t.min_batch_timeout > t.max_batch_timeout && t.max_batch_timeout > 0 then
    fail "min_batch_timeout exceeds max_batch_timeout"
  else if t.epoch_change_timeout <= 0 then fail "epoch_change_timeout must be positive"
  else if (match t.batch_rate with Some r -> r <= 0.0 | None -> false) then
    fail "batch_rate must be positive when set"
  else if (match t.admission with Bounded { capacity; _ } -> capacity <= 0 | Unbounded -> false)
  then fail "a bounded admission capacity must be positive"
  else begin
    match t.leader_policy with
    | Fixed [] -> fail "Fixed leader policy needs at least one leader"
    | Fixed leaders when List.exists (fun l -> l < 0 || l >= t.n) leaders ->
        fail "Fixed leader policy contains an out-of-range node id"
    | Fixed _ | Simple | Backoff | Blacklist | Straggler_aware -> Ok ()
  end

let protocol_name = function PBFT -> "PBFT" | HotStuff -> "HotStuff" | Raft -> "Raft"

let shed_policy_name = function Reject_new -> "reject-new" | Drop_oldest -> "drop-oldest"

let policy_name = function
  | Simple -> "SIMPLE"
  | Backoff -> "BACKOFF"
  | Blacklist -> "BLACKLIST"
  | Fixed leaders -> Printf.sprintf "FIXED(%d leaders)" (List.length leaders)
  | Straggler_aware -> "STRAGGLER-AWARE"

let pp fmt t =
  Format.fprintf fmt
    "@[<v>protocol: %s@,n: %d@,policy: %s@,buckets/leader: %d@,max batch: \
     %d@,batch rate: %s@,batch timeout: [%a, %a]@,min epoch length: %d@,min \
     segment size: %d@,epoch change timeout: %a@,client signatures: %s@,flow \
     control: %s@]"
    (protocol_name t.protocol) t.n
    (policy_name t.leader_policy)
    t.buckets_per_leader t.max_batch_size
    (match t.batch_rate with Some r -> Printf.sprintf "%.0f b/s" r | None -> "unthrottled")
    Sim.Time_ns.pp t.min_batch_timeout Sim.Time_ns.pp t.max_batch_timeout t.min_epoch_length
    t.min_segment_size Sim.Time_ns.pp t.epoch_change_timeout
    (if client_signatures t then "256-bit ECDSA (simulated)" else "none")
    (match t.admission with
    | Bounded { capacity; shed } -> Printf.sprintf "on (cap=%d, %s)" capacity (shed_policy_name shed)
    | Unbounded -> "off")

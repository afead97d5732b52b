type protocol = PBFT | HotStuff | Raft

type leader_policy_kind =
  | Simple
  | Backoff
  | Blacklist
  | Fixed of Proto.Ids.node_id list
  | Straggler_aware

type shed_policy = Reject_new | Drop_oldest

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
  client_watermark_window : int;
  flow_control : bool;
  bucket_capacity : int;
  shed_policy : shed_policy;
  pushback_watermark : float;
}

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
    client_watermark_window = 512;
    flow_control = false;
    bucket_capacity = 4096;
    shed_policy = Reject_new;
    pushback_watermark = 0.75;
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
  else if t.client_watermark_window <= 0 then fail "client_watermark_window must be positive"
  else if (match t.batch_rate with Some r -> r <= 0.0 | None -> false) then
    fail "batch_rate must be positive when set"
  else if t.bucket_capacity <= 0 then fail "bucket_capacity must be positive"
  else if t.pushback_watermark <= 0.0 || t.pushback_watermark > 1.0 then
    fail "pushback_watermark must be in (0, 1] (got %g)" t.pushback_watermark
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
    (if t.flow_control then
       Printf.sprintf "on (cap=%d, %s, watermark=%.2f)" t.bucket_capacity
         (shed_policy_name t.shed_policy) t.pushback_watermark
     else "off")

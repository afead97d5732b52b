(* The layers a run passes through, named after the repo's modules, and the
   map from each source file under lib/ to its layer.  The sampling
   profiler charges every sample to the layer of the innermost lib/ frame.

   sim/, core/ and runner/ hold several layers each, so their files are
   listed one by one: a new file there has no layer until it is added here,
   which test_e2e catches.  Every other library is a single layer. *)

let files =
  [
    ("lib/sim/engine.ml", "sim.engine");
    ("lib/sim/event_queue.ml", "sim.engine");
    ("lib/sim/heap.ml", "sim.engine");
    ("lib/sim/rng.ml", "sim.engine");
    ("lib/sim/time_ns.ml", "sim.engine");
    ("lib/sim/network.ml", "sim.network");
    ("lib/sim/topology.ml", "sim.network");
    ("lib/sim/metrics.ml", "sim.metrics");
    ("lib/sim/trace.ml", "obs");
    ("lib/core/node.ml", "core.node");
    ("lib/core/config.ml", "core.node");
    ("lib/core/orderer_intf.ml", "core.node");
    ("lib/core/watermarks.ml", "core.watermarks");
    ("lib/core/bucket_queue.ml", "core.bucket_queue");
    ("lib/core/log.ml", "core.log");
    ("lib/core/client.ml", "core.client");
    ("lib/core/segment.ml", "core.epoch");
    ("lib/core/leader_policy.ml", "core.epoch");
    ("lib/core/bucket_assignment.ml", "core.epoch");
    ("lib/runner/workload.ml", "runner.workload");
    ("lib/runner/cluster.ml", "runner.cluster");
    ("lib/runner/experiment.ml", "runner.cluster");
    ("lib/runner/faults.ml", "runner.faults");
    ("lib/runner/adversary.ml", "runner.faults");
  ]

let dirs =
  [
    ("lib/pbft/", "pbft");
    ("lib/hotstuff/", "hotstuff");
    ("lib/raft/", "raft");
    ("lib/mirbft/", "mirbft");
    ("lib/brb/", "brb");
    ("lib/proto/", "proto");
    ("lib/iss_crypto/", "iss_crypto");
    ("lib/obs/", "obs");
    ("lib/conform/", "conform");
  ]

(* Samples with no lib/ frame on the stack. *)
let other = "other"

(* Report order: engine and network first, then the node, the orderers,
   the libraries they share, the harness, and [other] last. *)
let all =
  [
    "sim.engine";
    "sim.network";
    "sim.metrics";
    "core.node";
    "core.watermarks";
    "core.bucket_queue";
    "core.log";
    "core.client";
    "core.epoch";
    "pbft";
    "hotstuff";
    "raft";
    "mirbft";
    "brb";
    "proto";
    "iss_crypto";
    "runner.workload";
    "runner.cluster";
    "runner.faults";
    "obs";
    "conform";
    other;
  ]

let of_file file =
  match List.assoc_opt file files with
  | Some layer -> Some layer
  | None -> List.assoc_opt (Filename.dirname file ^ "/") dirs

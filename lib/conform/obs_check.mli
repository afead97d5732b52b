(** Observability self-consistency (DESIGN.md §9). *)

val check :
  cluster:Runner.Cluster.t ->
  registry:Obs.Registry.t ->
  tracer:Obs.Tracer.t ->
  engine:Sim.Engine.t ->
  Checker.stats ->
  string option
(** The first disagreement of the registry's delivery counters with the
    checker and the cluster, or of the tracer's submit-before-reply order;
    [None] if they agree. *)

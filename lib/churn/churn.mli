(** Continuous-churn steady-state driver.

    The paper proves join (and leave) correctness for a {e static} membership
    episode: a consistent network, a burst of joins, quiescence. This driver
    runs the protocol the way a deployment would experience it — an open
    system held near a target size [n] for hours of virtual time, with nodes
    arriving as a Poisson process and departing when their (exponential,
    Pareto or fixed) session time expires. Half of the departures are
    graceful ({!Ntcu_extensions.Leave_protocol}); the rest crash and must be
    discovered through the reliable transport's suspicion machinery plus a
    periodic maintenance probe, then repaired online
    ({!Ntcu_extensions.Online_repair}).

    The driver samples a time series (Definition 3.8 violations, repair
    debt, lookup success, suspicion false positives, per-node message rate)
    and, via {!sweep}, lowers the population half-life until the network
    stops keeping up — the measured churn tolerance, compared against the
    stochastic-analysis prediction that a maintenance interval [R] sustains
    half-lives down to [c * R * log2 n] (PAPERS.md, arXiv:1011.3182).

    Everything is deterministic in [config.seed]: arrivals, session times,
    identities, gateways, lookups. A sweep fanned out over
    {!Ntcu_std.Parallel} is byte-identical at any [--jobs] width. *)

type config = {
  b : int;
  d : int;
  n : int;  (** Target steady-state size (also the initial size). *)
  duration : float;  (** Steady-state window, virtual ms. *)
  half_life : float;
      (** Population half-life, virtual ms. The mean session time is
          [half_life / ln 2] and the arrival rate [n / mean] (M/G/infinity:
          the equilibrium population is [n]). *)
  dist : Session.kind;  (** Session-time distribution shape. *)
  crash_fraction : float;
      (** Fraction of departures that crash instead of leaving gracefully.
          Departures of nodes still mid-join always crash (a polite leave
          needs an installed table). *)
  loss : float;  (** Per-message loss probability. *)
  sample_every : float;  (** Time-series sampling period, virtual ms. *)
  maintenance_every : float;
      (** Period of the maintenance pass that probes dead-but-referenced
          nodes (driving suspicion -> scrub -> refill) and reaps
          unreferenced crashed registrations. *)
  lookups_per_sample : int;
      (** Random member-to-member {!Ntcu_routing.Route.route_resilient}
          lookups measured at each sample. *)
  seed : int;
  debug_timers : bool;
      (** Enable {!Ntcu_sim.Engine.set_debug_timers} leak checking. *)
}

val default : config
(** [n = 1000], [b = 16], [d = 8], 4 h of virtual time with a 1 h half-life,
    exponential sessions, half the departures crashing, 1% loss, 60 s
    samples, 30 s maintenance. *)

val smoke : config
(** A seconds-scale configuration for CI: [n = 60], 2 min of virtual time
    with a 1 min half-life, 10 s samples, 5 s maintenance. *)

val session_mean : config -> float
val arrival_rate : config -> float  (** Arrivals per virtual ms. *)

val detection_budget : config -> float
(** Worst-case virtual time for the reliable transport to suspect a dead
    peer once probed: the full (jitter-free) retry schedule
    [rto * (backoff^(max_retries+1) - 1) / (backoff - 1)]. *)

val repair_latency : config -> float
(** [maintenance_every + detection_budget c] — the [R] of the tolerance
    prediction: the worst-case lag between a crash and its scrub. *)

val predicted_half_life : config -> float
(** The stochastic-analysis tolerance scale [R * log2 n] (constant [c = 1]):
    below this half-life the repair process is predicted to lose the race
    against churn. A coarse yardstick, not a fitted bound. *)

(** {1 Time series} *)

type sample = {
  t : float;  (** Virtual ms. *)
  live : int;  (** Registered, not crashed. *)
  s_nodes : int;  (** Live and [In_system]. *)
  joining : int;  (** Live, join still in flight. *)
  entries : int;  (** Filled primary entries across S-node tables. *)
  violations : int;
      (** Definition 3.8 false negatives + wrong-suffix entries over the
          S-node subnetwork (capped at {!violation_cap}). *)
  transitional : int;  (** Dangling entries naming a live mid-join node. *)
  holes : int;  (** Dangling entries naming a departed node. *)
  debt : float;
      (** Repair debt, virtual ms: over every hole, the age of the departure
          it references — outstanding holes weighted by how long they have
          dangled. *)
  unscrubbed : int;  (** Distinct departed nodes still referenced. *)
  lookups : int;
  lookups_ok : int;
  window_msgs : int;  (** Protocol messages first-sent since last sample. *)
  window_bytes : int;
  window_retrans : int;
  suspected_live : int;  (** Suspicion false positives: live but suspected. *)
  joins_started : int;  (** Cumulative. *)
  joins_skipped : int;  (** Arrivals dropped for want of a live gateway. *)
  leaves : int;
  crashes : int;
  aborted : int;  (** Mid-join departures converted to crashes. *)
}

val violation_cap : int
(** Cap on violations collected per sample (keeps sampling affordable when a
    sweep point has collapsed). *)

type summary = {
  samples : int;
  end_time : float;  (** Virtual ms at final quiescence, drain included. *)
  mean_live : float;
  min_live : int;
  max_live : int;
  mean_joining : float;
  mean_violations : float;
  max_violations : int;
  mean_holes : float;
  max_holes : int;
  mean_debt : float;
  max_debt : float;
  lookup_success : float;  (** Pooled over every in-window sample. *)
  msgs_per_node_s : float;
      (** Mean over samples of (window msgs / live / window seconds). *)
  suspected_live_max : int;
  tail_mean_live : float;  (** Tail = second half of the sample series. *)
  tail_mean_joining : float;
  tail_lookup_success : float;
  tail_mean_violations : float;
  tail_mean_holes : float;
  tail_stale_fraction : float;
      (** Pooled tail (violations + holes) / entries. *)
  joins_started : int;
  joins_skipped : int;
  leaves : int;
  crashes : int;
  aborted : int;
  stuck_reaped : int;
      (** Joiners wedged at drain (dead gateway — assumption (ii)), failed
          and repaired away like crashes. *)
  departures_cancelled : int;  (** Sessions outliving the window. *)
  final_live : int;
  final_in_system : bool;
  final_violations : int;
  final_holes : int;
  final_consistent : bool;
  drained : bool;
  events : int;  (** Messages delivered over the whole run. *)
  leave_report : Ntcu_extensions.Leave_protocol.report;
  repair_report : Ntcu_extensions.Online_repair.report;
}

type result = { config : config; series : sample list; summary : summary }

(** {1 Running} *)

type t

val prepare : ?record_trace:bool -> config -> t
(** Build the initial consistent network and schedule the churn sources
    without running anything — so callers (the schedule-exploration episode)
    can install delay hooks or observers first. *)

val net : t -> Ntcu_core.Network.t
val initial : t -> Ntcu_id.Id.t list  (** The seeded members. *)

val finish : t -> result
(** Run the steady-state window, then stop the sources, cancel outstanding
    session timers, drain to quiescence, crash-and-repair any wedged
    joiners, probe remaining dead references to quiescence and reap crashed
    registrations. Call once. *)

val run : ?record_trace:bool -> config -> result
(** [finish (prepare config)]. *)

val health : config -> summary -> string list
(** Graceful-degradation criteria over the tail of the window; empty iff the
    network kept up. Stable reason tokens: ["size"] (tail mean live outside
    +/-25% of [n]), ["backlog"] (tail mean joining > 25% of [n]), ["lookup"]
    (tail lookup success < 90%), ["stale"] (tail stale fraction > 2%),
    ["liveness"] (did not drain to an all-[in_system] network). *)

val ok : ?claim:Ntcu_harness.Experiment.claim -> result -> bool
(** [Best_effort] (the claim under crash churn, see
    {!Ntcu_harness.Experiment.claim}): drained, final network all
    [in_system], nonempty, and tail mean size within the +/-25% band.
    [Strict] (default) additionally requires the final network to be
    Definition 3.8 consistent — under crash churn that is a measurement, not
    a guarantee; [ntcu churn] gates graceful churn (no crashes) on it. *)

(** {1 Half-life sweep} *)

type point = {
  p_half_life : float;
  p_seed : int;
  p_summary : summary;
  p_reasons : string list;  (** {!health}; empty iff the point held. *)
}

type sweep_result = {
  sweep_base : config;
  points : point list;  (** Descending half-life (halved at each point). *)
  tolerated : float option;
      (** Smallest half-life of the maximal healthy prefix. *)
  collapse : float option;  (** First half-life that failed. *)
  predicted : float;  (** {!predicted_half_life} of the base config. *)
}

val sweep : Ntcu_std.Parallel.t -> base:config -> points:int -> sweep_result
(** Run [points] independent steady-state runs, halving the half-life each
    time, fanned out over the pool in submission order (byte-identical
    results at any pool width). Point [i] uses seed [base.seed + 97 i].
    @raise Invalid_argument if [points < 1]. *)

(** {1 Reporting} *)

val config_json : config -> Ntcu_harness.Report.Json.t
val summary_json : summary -> Ntcu_harness.Report.Json.t
(** Building blocks for composed artifacts (the serving bench embeds the
    churn side of a serve-under-churn run without duplicating the schema). *)

val result_json : result -> Ntcu_harness.Report.Json.t
val sweep_json : sweep_result -> Ntcu_harness.Report.Json.t

val bench_json : ?sweep:sweep_result -> result -> Ntcu_harness.Report.Json.t
(** The [BENCH_churn.json] document, schema ["ntcu-bench-churn/1"]:
    [{schema; config; series; summary; sweep?}]. Deliberately contains no
    wall-clock or job-count fields, so serial and parallel runs emit
    byte-identical artifacts. *)

val pp_summary : summary Fmt.t
val pp_result : result Fmt.t
val pp_sweep : sweep_result Fmt.t

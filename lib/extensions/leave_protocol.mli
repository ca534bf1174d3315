(** Message-passing leave protocol with support for concurrent leaves.

    Unlike {!Leave} (which executes one departure atomically between protocol
    rounds), this module runs departures through the discrete-event engine:
    the leaving node sends a LeaveMsg carrying a per-level replacement vector
    to each of its reverse neighbors, waits for their acknowledgements, and
    only then departs. Multiple nodes may be leaving at once.

    Races are resolved by two rules, both enforced at single events of the
    simulation (modeling a confirmation handshake with the candidate):

    + a leaver never lists a node that is itself leaving (or dead) as a
      replacement;
    + a repairing node installs a received replacement only if it is still
      present and not leaving; otherwise it falls back to
      {!Repair.find_live}, or empties the entry without a search when
      {!Repair.has_live_carrier} finds no live, non-leaving carrier.

    Together with reverse-neighbor registration at install time, this
    guarantees that when a replacement later leaves, the nodes now pointing
    at it are among its reverse neighbors and get repaired in turn — so any
    set of concurrent leaves ends in a consistent surviving network. *)

type report = {
  departed : int;
  messages : int;  (** LeaveMsg + acknowledgements. *)
  installed : int;  (** Entries repaired with the leaver's replacement. *)
  fallback_local : int;  (** Entries repaired via 1–2-hop search. *)
  fallback_flood : int;  (** Entries repaired via the suffix flood. *)
  emptied : int;
      (** Entries with no live holder left. Such an entry is emptied
          without a search: {!Repair.has_live_carrier} rules one out first. *)
}

val pp_report : report Fmt.t

type t

val create : ?latency:Ntcu_sim.Latency.t -> Ntcu_core.Network.t -> t
(** The latency model is sampled with abstract endpoints (use constant or
    uniform models here). Default: uniform 1–10 ms, seed 0. *)

val request_leave : t -> ?at:float -> Ntcu_id.Id.t -> unit
(** Schedule a departure. The node must exist and be [in_system] when the
    request fires (otherwise the request is dropped). *)

val run : t -> unit
(** Drive the engine to quiescence and return once all requested departures
    completed. *)

val report : t -> report

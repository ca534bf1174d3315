(** Replacement-candidate search for table repair.

    When an entry's occupant is gone (failed, or departed in a race), the
    entry's owner must find another live node carrying the entry's required
    suffix. The search escalates:

    + {b one-hop}: scan the tables of the owner's live neighbors and reverse
      neighbors (pure local information);
    + {b two-hop}: extend the scan to those nodes' neighbors;
    + {b suffix flood}: query the whole live membership — the expensive
      last resort a deployment would implement as a scoped multicast within
      the suffix set, modeled here by a global scan and counted separately.

    Before any tier runs, a carrier test walks the live membership once and
    reads no table: is there a live member, other than the owner and not
    excluded, whose ID ends with the suffix? Every tier returns only such a
    member, so when there is none the search ends [Not_found] at once.

    Every table a deployment would consult is counted so experiments can
    report the cost of each escalation tier. The count models the deployed
    protocol, not the simulator's work: a [Not_found] is charged both rings
    and the flood even though the carrier test let the simulator skip them. *)

type outcome =
  | Found_local of { candidate : Ntcu_id.Id.t; tables_consulted : int; hops : int }
  | Found_flood of { candidate : Ntcu_id.Id.t; tables_consulted : int }
  | Not_found of { tables_consulted : int }
      (** No live node carries the suffix: the entry must stay empty.
          [tables_consulted] is |ring 1| + |ring 2| + 1. *)

val find_live :
  ?exclude:(Ntcu_id.Id.t -> bool) ->
  Ntcu_core.Network.t ->
  owner:Ntcu_table.Table.t ->
  suffix:int array ->
  outcome
(** Search for a live node (other than the owner, and not [exclude]d — e.g.
    nodes known to be leaving) whose ID ends with [suffix]. *)

val has_live_carrier :
  ?exclude:(Ntcu_id.Id.t -> bool) ->
  Ntcu_core.Network.t ->
  owner:Ntcu_table.Table.t ->
  suffix:int array ->
  bool
(** The carrier test: [true] iff some registered, not failed member other
    than the owner and not [exclude]d carries [suffix] — exactly when
    {!find_live} with the same arguments does not return [Not_found]. Walks
    the membership once and reads no table. *)

val pp_outcome : outcome Fmt.t

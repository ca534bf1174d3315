module Id = Ntcu_id.Id
module Table = Ntcu_table.Table
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node

type outcome =
  | Found_local of { candidate : Id.t; tables_consulted : int; hops : int }
  | Found_flood of { candidate : Id.t; tables_consulted : int }
  | Not_found of { tables_consulted : int }

let pp_outcome ppf = function
  | Found_local { candidate; tables_consulted; hops } ->
    Fmt.pf ppf "local hit %a (%d tables, %d hops)" Id.pp candidate tables_consulted hops
  | Found_flood { candidate; tables_consulted } ->
    Fmt.pf ppf "flood hit %a (%d tables)" Id.pp candidate tables_consulted
  | Not_found { tables_consulted } -> Fmt.pf ppf "no live holder (%d tables)" tables_consulted

let live_contacts net table =
  let owner = Table.owner table in
  Id.Set.filter
    (fun id ->
      (not (Id.equal id owner)) && Network.mem net id && not (Network.is_failed net id))
    (Id.Set.union (Table.known_nodes table) (Table.all_reverse table))

(* Scan one node's table for a live carrier of [suffix]; the scanned node
   itself also counts as a candidate. *)
let scan_one net ~exclude ~owner_id ~suffix id =
  let matches cand =
    (not (Id.equal cand owner_id))
    && (not (exclude cand))
    && Id.has_suffix cand suffix
    && Network.mem net cand
    && not (Network.is_failed net cand)
  in
  if matches id then Some id
  else begin
    match Network.node net id with
    | None -> None
    | Some node ->
      Table.fold (Node.table node) ~init:None ~f:(fun acc ~level:_ ~digit:_ cand _ ->
          match acc with Some _ -> acc | None -> if matches cand then Some cand else None)
  end

(* The suffix flood: the first live member in registration order, other
   than the owner and not [exclude]d, that carries [suffix]. It reads no
   table. Every tier returns only such a member, so when there is none
   every tier would miss. *)
let flood_hit ~exclude net ~owner_id ~suffix =
  List.find_opt
    (fun id ->
      Id.has_suffix id suffix
      && (not (Id.equal id owner_id))
      && (not (exclude id))
      && not (Network.is_failed net id))
    (Network.ids net)

let has_live_carrier ?(exclude = fun _ -> false) net ~owner ~suffix =
  Option.is_some (flood_hit ~exclude net ~owner_id:(Table.owner owner) ~suffix)

let find_live ?(exclude = fun _ -> false) net ~owner ~suffix =
  let owner_id = Table.owner owner in
  let consulted = ref 0 in
  let scan_set contacts =
    Id.Set.fold
      (fun id acc ->
        match acc with
        | Some _ -> acc
        | None ->
          incr consulted;
          scan_one net ~exclude ~owner_id ~suffix id)
      contacts None
  in
  let ring1 = live_contacts net owner in
  (* Two-hop ring: contacts of contacts, minus what ring 1 already holds. *)
  let ring2 () =
    let ring2 =
      Id.Set.fold
        (fun id acc ->
          match Network.node net id with
          | None -> acc
          | Some node -> Id.Set.union acc (live_contacts net (Node.table node)))
        ring1 Id.Set.empty
    in
    Id.Set.diff (Id.Set.remove owner_id ring2) ring1
  in
  match flood_hit ~exclude net ~owner_id ~suffix with
  | None ->
    (* No carrier: every tier would miss, so charge both rings and the flood
       without scanning a table. *)
    Not_found { tables_consulted = Id.Set.cardinal ring1 + Id.Set.cardinal (ring2 ()) + 1 }
  | Some flooded -> begin
    match scan_set ring1 with
    | Some candidate -> Found_local { candidate; tables_consulted = !consulted; hops = 1 }
    | None -> begin
      match scan_set (ring2 ()) with
      | Some candidate -> Found_local { candidate; tables_consulted = !consulted; hops = 2 }
      | None -> Found_flood { candidate = flooded; tables_consulted = !consulted + 1 }
    end
  end

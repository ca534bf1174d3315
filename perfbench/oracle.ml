(* Definition 3.8 checked apart from the program's own checker.

   The suffixes carried by the members form a trie over their digits read
   from the right: node 0 is the empty suffix, and the child of node [u] by
   digit [j] is the suffix [j . u]. At level [i] of member [x]'s table, the
   (i, j)-entry's required suffix is [j . x[i-1..0]], which is carried by
   some member iff the trie node of [x]'s own length-[i] suffix has a child
   [j]. So one walk down [x]'s trie path judges its whole table:

   - a carried suffix needs a filled entry whose occupant is a member whose
     own length-(i+1) trie node is that child;
   - a suffix carried by no member needs an empty entry.

   Ntcu_table.Check is never called here; the benchmark compares the two. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params

type kind =
  | Missing  (** empty, but some member carries the required suffix *)
  | Departed  (** the occupant is not a member *)
  | Wrong_suffix  (** the occupant is a member lacking the required suffix *)

type violation = { member : Id.t; level : int; digit : int; kind : kind }

let kind_name = function
  | Missing -> "missing"
  | Departed -> "departed"
  | Wrong_suffix -> "wrong-suffix"

let pp_violation ppf v =
  Format.fprintf ppf "%s (%d,%d)-entry of %s" (kind_name v.kind) v.level v.digit
    (Id.to_string v.member)

(* [get member ~level ~digit] is the entry's occupant. *)
let violations (p : Params.t) ~members ~get =
  let children : (int, int) Hashtbl.t = Hashtbl.create (8 * List.length members) in
  let next = ref 1 in
  (* path.(k) = trie node of the member's length-k suffix *)
  let paths = Id.Tbl.create (List.length members) in
  List.iter
    (fun x ->
      let path = Array.make (p.d + 1) 0 in
      for i = 0 to p.d - 1 do
        let key = (path.(i) * p.b) + Id.digit x i in
        let child =
          match Hashtbl.find_opt children key with
          | Some c -> c
          | None ->
            let c = !next in
            incr next;
            Hashtbl.add children key c;
            c
        in
        path.(i + 1) <- child
      done;
      Id.Tbl.replace paths x path)
    members;
  let found = ref [] in
  List.iter
    (fun x ->
      let path = Id.Tbl.find paths x in
      for level = 0 to p.d - 1 do
        for digit = 0 to p.b - 1 do
          let flag kind = found := { member = x; level; digit; kind } :: !found in
          let carried = Hashtbl.find_opt children ((path.(level) * p.b) + digit) in
          match (get x ~level ~digit, carried) with
          | None, None -> ()
          | None, Some _ -> flag Missing
          | Some y, _ -> (
            match Id.Tbl.find_opt paths y with
            | None -> flag Departed
            | Some ypath -> (
              match carried with
              | Some node when ypath.(level + 1) = node -> ()
              | _ -> flag Wrong_suffix))
        done
      done)
    members;
  List.rev !found

let table_get net x ~level ~digit =
  let table = Ntcu_core.Node.table (Ntcu_core.Network.node_exn net x) in
  Option.map fst (Ntcu_table.Table.get table ~level ~digit)

let check_network net ~members =
  violations (Ntcu_core.Network.params net) ~members ~get:(table_get net)

(* {1 Self-test}

   Three faults planted into a small consistent network, each on a fresh
   copy: an emptied entry, a departed occupant and a wrong-suffix occupant.
   [Table.set] refuses a wrong-suffix write, so that occupant is planted in
   the entry accessor the oracle reads. Returns the failures found. *)

let self_test () =
  let module Network = Ntcu_core.Network in
  let module Table = Ntcu_table.Table in
  let p = Params.make ~b:4 ~d:5 in
  let fresh () =
    let rng = Ntcu_std.Rng.create 7 in
    let ids = Ntcu_harness.Workload.distinct_ids rng p ~n:48 in
    let net = Network.create p in
    Network.seed_consistent net ~seed:8 ids;
    (net, ids)
  in
  let errors = ref [] in
  let expect what cond = if not cond then errors := what :: !errors in
  (* A non-self filled entry: (member, level, digit, occupant). *)
  let filled_entry net ids =
    List.find_map
      (fun x ->
        let table = Ntcu_core.Node.table (Network.node_exn net x) in
        Table.fold table ~init:None ~f:(fun acc ~level ~digit y _ ->
            match acc with
            | Some _ -> acc
            | None -> if Id.equal x y then None else Some (x, level, digit, y)))
      ids
    |> Option.get
  in
  let only_at ~member ~level ~digit kind vs =
    match vs with
    | [ v ] ->
      Id.equal v.member member && v.level = level && v.digit = digit && v.kind = kind
    | _ -> false
  in
  let net, ids = fresh () in
  expect "clean network flagged" (check_network net ~members:ids = []);
  expect "clean network rejected by Check"
    (Ntcu_table.Check.violations (Network.tables net) = []);
  (* 1. Emptied entry. *)
  let x, level, digit, _ = filled_entry net ids in
  Table.clear (Ntcu_core.Node.table (Network.node_exn net x)) ~level ~digit;
  expect "emptied entry not flagged"
    (only_at ~member:x ~level ~digit Missing (check_network net ~members:ids));
  expect "emptied entry missed by Check"
    (Ntcu_table.Check.violations (Network.tables net) <> []);
  (* 2. Departed occupant: removed without repairing the tables naming it. *)
  let net, ids = fresh () in
  let x, level, digit, y = filled_entry net ids in
  Network.remove net y;
  let members = List.filter (fun z -> not (Id.equal z y)) ids in
  let vs = check_network net ~members in
  expect "departed occupant not flagged"
    (List.exists
       (fun v ->
         Id.equal v.member x && v.level = level && v.digit = digit && v.kind = Departed)
       vs);
  expect "departed flags name other entries"
    (List.for_all
       (fun v -> table_get net v.member ~level:v.level ~digit:v.digit = Some y)
       vs);
  (* 3. Wrong-suffix occupant: a member lacking the entry's suffix. *)
  let net, ids = fresh () in
  let x, level, digit, _ = filled_entry net ids in
  let suffix =
    Table.required_suffix (Ntcu_core.Node.table (Network.node_exn net x)) ~level ~digit
  in
  let z = List.find (fun z -> not (Id.has_suffix z suffix)) ids in
  let get m ~level:l ~digit:j =
    if Id.equal m x && l = level && j = digit then Some z
    else table_get net m ~level:l ~digit:j
  in
  expect "wrong-suffix occupant not flagged"
    (only_at ~member:x ~level ~digit Wrong_suffix (violations p ~members:ids ~get));
  List.rev !errors

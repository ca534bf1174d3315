(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a library: name, start, end,
   parent span, and the GC work done inside it. Spans stay in memory and are
   written out once, at the end of the run. A disabled recorder only runs the
   thunk, so the untraced runs pay nothing for it. *)

let now = Unix.gettimeofday

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  start : float;
  stop : float;
  alloc_words : float;  (** minor + major - promoted words allocated *)
  major_gcs : int;
}

(* Time spent in a function called many times inside one span (the distance
   function during [Network.run]); recorded as a total, not one span per call. *)
type aggregate = { agg_name : string; agg_parent : int; calls : int; total_s : float }

type t = {
  enabled : bool;
  mutable spans : span list;  (** finished, most recent first *)
  mutable aggregates : aggregate list;
  mutable stack : int list;
  mutable next : int;
}

let create ~enabled = { enabled; spans = []; aggregates = []; stack = []; next = 0 }
let enabled t = t.enabled

let allocated (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let g0 = Gc.quick_stat () in
    let start = now () in
    let close () =
      let stop = now () in
      let g1 = Gc.quick_stat () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          name;
          parent;
          start;
          stop;
          alloc_words = allocated g1 -. allocated g0;
          major_gcs = g1.major_collections - g0.major_collections;
        }
        :: t.spans
    in
    Fun.protect ~finally:close f
  end

(* The innermost open span, for attaching an aggregate to it. *)
let current t = match t.stack with p :: _ -> p | [] -> -1

let add_aggregate t ~name ~parent ~calls ~total_s =
  if t.enabled then
    t.aggregates <- { agg_name = name; agg_parent = parent; calls; total_s } :: t.aggregates

let duration s = s.stop -. s.start

let aggregate_total t name =
  List.fold_left
    (fun acc a -> if String.equal a.agg_name name then acc +. a.total_s else acc)
    0. t.aggregates

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* One JSON document: {"run_id", "spans": [...], "aggregates": [...]}.
   Times are seconds since the first span started. *)
let to_json t ~run_id =
  let spans = List.sort (fun a b -> Int.compare a.id b.id) t.spans in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let origin = if Float.is_finite origin then origin else 0. in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"run_id\": %S,\n \"spans\": [" run_id;
  List.iteri
    (fun i s ->
      Printf.bprintf b
        "%s\n  {\"id\": %d, \"name\": %S, \"parent\": %d, \"start\": %.6f, \"end\": %.6f, \
         \"alloc_words\": %.0f, \"major_gcs\": %d}"
        (if i = 0 then "" else ",")
        s.id s.name s.parent (s.start -. origin) (s.stop -. origin) s.alloc_words
        s.major_gcs)
    spans;
  Buffer.add_string b "],\n \"aggregates\": [";
  List.iteri
    (fun i a ->
      Printf.bprintf b
        "%s\n  {\"name\": %S, \"parent\": %d, \"calls\": %d, \"total_s\": %.6f}"
        (if i = 0 then "" else ",")
        a.agg_name a.agg_parent a.calls a.total_s)
    (List.rev t.aggregates);
  Buffer.add_string b "]}\n";
  Buffer.contents b

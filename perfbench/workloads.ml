(* The three workloads. Each iteration builds its inputs from the seed alone,
   times every phase from outside by timing the calls into the libraries,
   and returns plain data: phase times, the counts that must repeat, the
   per-layer counts of the traced run and the correctness checks. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Rng = Ntcu_std.Rng
module Network = Ntcu_core.Network
module Node = Ntcu_core.Node
module Stats = Ntcu_core.Stats
module Message = Ntcu_core.Message
module Engine = Ntcu_sim.Engine
module Table = Ntcu_table.Table
module Check = Ntcu_table.Check
module Transit_stub = Ntcu_topology.Transit_stub
module Endhosts = Ntcu_topology.Endhosts
module Distances = Ntcu_topology.Distances
module Scale = Ntcu_scale.Scale
module Scale_bench = Ntcu_harness.Scale_bench
module Churn = Ntcu_churn.Churn

type iteration = {
  setup_s : float;  (** median of this iteration's set-up calls *)
  run_s : float;
  wall_s : float;  (** all the iteration's timed calls *)
  events : int;  (** messages delivered, or arena frames processed *)
  attempted : int;
  failed : int;
  counts : (string * float) list;  (** must repeat exactly, traced or not *)
  layer : (string * float) list;  (** per-layer counts *)
  checks : (string * bool) list;  (** run on the first iteration only *)
}

type t = {
  name : string;
  iterate : Spans.t -> seed:int -> full:bool -> iteration;
  after : Spans.t -> seed:int -> iteration -> (string * float) list * (string * bool) list;
      (** Once per run, after the measured iterations. *)
}

let span = Spans.span
let timed = Spans.timed
let fi = float_of_int

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean with the lowest and highest tenth left out (one each way from four
   values on). On a shared host the speed of memory-heavy work moves between
   levels that last tens of seconds; a median sticks to one level, this mean
   weighs them by time, and no single stray iteration moves it. *)
let trimmed_mean xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  let k = if n >= 4 then max 1 (n / 10) else 0 in
  let kept = Array.sub a k (n - (2 * k)) in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. kept /. float_of_int (Array.length kept)

(* [k] timed calls of a set-up function; the last result is kept. *)
let repeat_setup k f =
  let rec go i times =
    let r, s = timed f in
    if i + 1 >= k then (r, s, median (s :: times)) else go (i + 1) (s :: times)
  in
  go 0 []

let no_after _ ~seed:_ _ = ([], [])

(* Inputs per round, on the seeds [input_seed seed k]: a run's timings are
   averaged over them, so one input's own cost does not set them. *)
let inputs = 2

(* The seed of input [k] of a workload run on [seed]; input 0 is [seed]. The
   step keeps clear of the offsets a workload adds to its seed. *)
let input_seed seed k = seed + (104_729 * k)

(* ---- Figure 15(b): n = 3096, m = 1000, all joins at t = 0 ---- *)

let fig15b_n = 3096
let fig15b_m = 1000

type distance_clock = { mutable calls : int; mutable total : float }

(* The latency model of [Endhosts.latency] (same jitter and seed), built
   around a timed [Endhosts.distance] when tracing. *)
let latency_model tr hosts ~seed =
  if not (Spans.enabled tr) then (Endhosts.latency ~seed hosts, None)
  else begin
    let clock = { calls = 0; total = 0. } in
    let distance ~src ~dst =
      let t0 = Spans.now () in
      let r = Endhosts.distance hosts src dst in
      clock.total <- clock.total +. (Spans.now () -. t0);
      clock.calls <- clock.calls + 1;
      r
    in
    (Ntcu_sim.Latency.of_distance ~jitter:0.05 ~seed distance, Some clock)
  end

let sent_counts g =
  List.map
    (fun k -> ("core.sent." ^ Message.kind_name k, fi (Stats.sent g k)))
    Message.
      [
        K_cp_rst;
        K_cp_rly;
        K_join_wait;
        K_join_wait_rly;
        K_join_noti;
        K_join_noti_rly;
        K_in_sys_noti;
        K_spe_noti;
        K_spe_noti_rly;
        K_rv_ngh_noti;
        K_rv_ngh_noti_rly;
      ]

(* Counts every record-engine workload shares. *)
let network_counts net =
  let g = Network.global_stats net in
  let engine = Network.engine net in
  [
    ("core.messages", fi (Network.messages_delivered net));
    ("core.bytes_sent", fi (Stats.bytes_sent g));
    ("sim.events", fi (Engine.events_processed engine));
    ("sim.events_cancelled", fi (Engine.events_cancelled engine));
    ("core.retransmissions", fi (Stats.retransmissions g));
    ("core.acks", fi (Network.acks_sent net));
  ]
  @ sent_counts g

(* The oracle and the program's own check must agree, and both find none. *)
let def38_checks net ~members ~program =
  let oracle = Oracle.check_network net ~members in
  List.iteri
    (fun i v -> if i < 5 then Format.eprintf "oracle: %a@." Oracle.pp_violation v)
    oracle;
  [
    ("def38 oracle finds no violation", oracle = []);
    ("def38 oracle agrees with Check", List.is_empty oracle = List.is_empty program);
  ]

let fig15b ~d tr ~seed ~full =
  let p = Params.make ~b:16 ~d in
  let n = fig15b_n and m = fig15b_m in
  let (net, joiners, hosts, clock), setup_s =
    timed (fun () ->
        span tr "setup" (fun () ->
            let rng = Rng.create seed in
            let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n in
            let joiners =
              Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:m
            in
            let topo =
              span tr "topology.generate" (fun () ->
                  Transit_stub.generate ~seed:(seed + 10) Transit_stub.scaled_config)
            in
            let hosts =
              span tr "topology.attach" (fun () ->
                  Endhosts.attach ~seed:(seed + 11) topo ~n:(n + m))
            in
            (* Hosts are indexed in registration order: seeds, then joiners. *)
            let latency, clock = latency_model tr hosts ~seed:(seed + 12) in
            let net = Network.create ~latency p in
            span tr "core.seed" (fun () ->
                Network.seed_consistent net ~seed:(seed + 2) seeds);
            let gateways = Array.of_list seeds in
            span tr "core.start" (fun () ->
                Network.start_joins net
                  (List.map (fun id -> (0., id, Rng.pick rng gateways)) joiners));
            (net, joiners, hosts, clock)))
  in
  let (), run_s =
    timed (fun () ->
        span tr "core.run" (fun () ->
            Network.run net;
            Option.iter
              (fun c ->
                Spans.add_aggregate tr ~name:"topology.distance" ~parent:(Spans.current tr)
                  ~calls:c.calls ~total_s:c.total)
              clock))
  in
  let program, check_s =
    timed (fun () -> span tr "table.check" (fun () -> Network.check_consistent net))
  in
  let stats_of id = Node.stats (Network.node_exn net id) in
  let join_noti = List.map (fun id -> Stats.join_noti_sent (stats_of id)) joiners in
  let cp_wait = List.map (fun id -> Stats.copy_and_wait_sent (stats_of id)) joiners in
  let join_noti_mean = fi (List.fold_left ( + ) 0 join_noti) /. fi m in
  let cp_wait_max = List.fold_left max 0 cp_wait in
  let not_in_system =
    List.length
      (List.filter
         (fun id ->
           not (Node.status_equal (Node.status (Network.node_exn net id)) Node.In_system))
         joiners)
  in
  let ds = Distances.stats (Endhosts.distances hosts) in
  let messages = Network.messages_delivered net in
  let counts =
    ("paper.join_noti_total", fi (List.fold_left ( + ) 0 join_noti))
    :: ("topology.distance_queries", fi ds.queries)
    :: network_counts net
  in
  let checks =
    if not full then []
    else begin
      let bound = Ntcu_analysis.Join_cost.theorem5_bound p ~n ~m in
      def38_checks net ~members:(Network.ids net) ~program
      @ [
          ("def38 Check finds no violation", program = []);
          ("theorem 2: event queue drained", Network.is_quiescent net);
          ("theorem 3: CpRst + JoinWait <= d + 1", cp_wait_max <= d + 1);
          ("theorem 5: mean JoinNotiMsg <= bound", join_noti_mean <= bound);
          ( "messages sent = delivered",
            Stats.total_sent (Network.global_stats net) = messages );
        ]
    end
  in
  {
    setup_s;
    run_s;
    wall_s = setup_s +. run_s +. check_s;
    events = messages;
    attempted = m;
    failed = not_in_system;
    counts;
    layer =
      counts
      @ [
          ("topology.dijkstra_pops", fi ds.pops);
          ("topology.settled_hit_rate", Distances.hit_rate (Endhosts.distances hosts));
          ("topology.evictions", fi ds.evictions);
          ("paper.join_noti_mean", join_noti_mean);
          ("paper.cp_wait_max", fi cp_wait_max);
        ];
    checks;
  }

(* ---- scale-20k: the sharded arena engine on one domain ---- *)

let scale_n = 20_000
let scale_setup_reps = 5

let scale_counts (s : Scale.summary) =
  [
    ("population", fi s.population);
    ("seed_count", fi s.seed_count);
    ("shard_count", fi s.shard_count);
    ("epochs", fi s.epochs);
    ("injected", fi s.injected);
    ("events", fi s.events);
    ("cross_batches", fi s.cross_batches);
    ("cross_bytes", fi s.cross_bytes);
    ("redirects", fi s.redirects);
    ("deferrals", fi s.deferrals);
    ("stuck", fi s.stuck);
    ("stabilize_fills", fi s.stabilize_fills);
    ("violations", fi s.violations);
    ("store_words", fi s.store_words);
  ]
  @ List.map (fun (k, v) -> ("kind." ^ k, fi v)) s.kind_counts
  @ Array.to_list
      (Array.mapi (fun i v -> (Printf.sprintf "shard.%d" i, fi v)) s.shard_events)

let scale tr ~seed ~full =
  let cfg = Scale_bench.default_config ~seed ~n:scale_n () in
  (* The arena's set-up alone: the seed population with no joiner. *)
  let seeded, _, setup_s =
    repeat_setup scale_setup_reps (fun () ->
        span tr "scale.setup" (fun () -> Scale.run ~jobs:1 { cfg with n = cfg.seeds }))
  in
  let s, run_s = timed (fun () -> span tr "scale.run" (fun () -> Scale.run ~jobs:1 cfg)) in
  let sum_kinds = List.fold_left (fun acc (_, v) -> acc + v) 0 s.kind_counts in
  let sum_shards = Array.fold_left ( + ) 0 s.shard_events in
  let mean_shard = fi sum_shards /. fi (Array.length s.shard_events) in
  let max_shard = Array.fold_left max 0 s.shard_events in
  let checks =
    if not full then []
    else
      [
        ("seed-only run injects nothing", seeded.injected = 0 && seeded.stuck = 0);
        ("injected = n - seeds", s.injected = cfg.n - cfg.seeds);
        ("sum of kind_counts = events", sum_kinds = s.events);
        ("events = sum of shard_events", s.events = sum_shards);
        ("no violation after stabilize", s.violations = 0);
      ]
  in
  {
    setup_s;
    run_s;
    wall_s = run_s;
    events = s.events;
    attempted = s.injected;
    failed = s.stuck;
    counts = scale_counts s;
    layer =
      [
        ("scale.frames", fi s.events);
        ("scale.epochs", fi s.epochs);
        ("wire.cross_batches", fi s.cross_batches);
        ("wire.cross_bytes", fi s.cross_bytes);
        ("node_store.bytes_per_node", Scale_bench.bytes_per_node s);
        ("scale.shard_imbalance", fi max_shard /. mean_shard);
        ("scale.redirects", fi s.redirects);
        ("scale.deferrals", fi s.deferrals);
        ("scale.stuck", fi s.stuck);
        ("scale.stabilize_fills", fi s.stabilize_fills);
      ]
      @ List.map (fun (k, v) -> ("scale.frames." ^ k, fi v)) s.kind_counts;
    checks;
  }

(* --jobs independence: the same run on two domains gives the same summary. *)
let scale_after tr ~seed (it : iteration) =
  let cfg = Scale_bench.default_config ~seed ~n:scale_n () in
  let s2, run2_s =
    timed (fun () -> span tr "scale.run2" (fun () -> Scale.run ~jobs:2 cfg))
  in
  ( [ ("scale.run2_s", run2_s); ("parallel.speedup", it.run_s /. run2_s) ],
    [ ("2-domain summary = 1-domain summary", scale_counts s2 = it.counts) ] )

(* ---- churn-leave-250: joins with graceful leaves, 1 % loss ---- *)

let churn_config seed =
  {
    Churn.default with
    n = 250;
    duration = 1_200_000.;
    half_life = 600_000.;
    sample_every = 30_000.;
    crash_fraction = 0.;
    loss = 0.01;
    seed;
  }

let churn_setup_reps = 7
let replay_find_live = 200
let replay_lookups = 1000

(* Per-call times of [Repair.find_live] and [Route.route_resilient] over a
   fixed seeded sample of (owner, entry) and (src, dst) pairs. The entries
   are those whose occupant is the only live carrier of the entry's suffix,
   searched with the occupant excluded: the search a leave repair makes when
   the leaver names no replacement, which is where churn-leave-250 spends
   most of [Churn.finish]. *)
let replays tr net ~seed =
  let rng = Rng.create (seed + 1_000) in
  let live = Array.of_list (Network.live_ids net) in
  let carriers suffix =
    Array.fold_left (fun n id -> if Id.has_suffix id suffix then n + 1 else n) 0 live
  in
  let entries =
    Array.concat
      (Array.to_list
         (Array.map
            (fun x ->
              let t = Node.table (Network.node_exn net x) in
              Array.of_list
                (Table.fold t ~init:[] ~f:(fun acc ~level ~digit y _ ->
                     let sole = carriers (Table.required_suffix t ~level ~digit) = 1 in
                     if Id.equal x y || not sole then acc
                     else (t, level, digit, y) :: acc)))
            live))
  in
  let sample = Array.init replay_find_live (fun _ -> Rng.pick rng entries) in
  let (), find_s =
    timed (fun () ->
        span tr "extensions.find_live" (fun () ->
            Array.iter
              (fun (t, level, digit, y) ->
                ignore
                  (Ntcu_extensions.Repair.find_live ~exclude:(Id.equal y) net ~owner:t
                     ~suffix:(Table.required_suffix t ~level ~digit)))
              sample))
  in
  let pairs = Array.init replay_lookups (fun _ -> (Rng.pick rng live, Rng.pick rng live)) in
  let lookup id = Option.map Node.table (Network.node net id) in
  let alive id = Network.mem net id && not (Network.is_failed net id) in
  let routed = ref 0 in
  let (), route_s =
    timed (fun () ->
        span tr "routing.lookup" (fun () ->
            Array.iter
              (fun (src, dst) ->
                match Ntcu_routing.Route.route_resilient ~lookup ~alive ~src ~dst with
                | Ok _ -> incr routed
                | Error _ -> ())
              pairs))
  in
  ( [
      ("extensions.find_live_us", 1e6 *. find_s /. fi replay_find_live);
      ("routing.lookup_us", 1e6 *. route_s /. fi replay_lookups);
    ],
    [ ("replayed lookups all routed", !routed = replay_lookups) ] )

let churn_episode tr ~seed ~full ~replay =
  let cfg = churn_config seed in
  let st, prepare_s, setup_s =
    repeat_setup churn_setup_reps (fun () ->
        span tr "churn.prepare" (fun () -> Churn.prepare cfg))
  in
  let result, run_s =
    timed (fun () -> span tr "churn.finish" (fun () -> Churn.finish st))
  in
  let s = result.summary in
  let net = Churn.net st in
  let sum_series f =
    List.fold_left (fun acc (x : Churn.sample) -> acc + f x) 0 result.series
  in
  let lookups = sum_series (fun x -> x.lookups) in
  let lookups_ok = sum_series (fun x -> x.lookups_ok) in
  let lr = s.leave_report and rr = s.repair_report in
  let counts =
    ("churn.joins_started", fi s.joins_started)
    :: ("churn.leaves", fi s.leaves)
    :: ("churn.lookups", fi lookups)
    :: network_counts net
  in
  let checks =
    if not full then []
    else begin
      let members = Network.live_ids net in
      let program =
        Check.violations (List.map (fun id -> Node.table (Network.node_exn net id)) members)
      in
      def38_checks net ~members ~program
      @ [
          ("def38 Check finds no violation", program = []);
          ("Churn.ok ~claim:Strict", Churn.ok ~claim:Ntcu_harness.Experiment.Strict result);
        ]
    end
  in
  let replay_layer, replay_checks =
    if replay && Spans.enabled tr then replays tr net ~seed else ([], [])
  in
  {
    setup_s;
    run_s;
    wall_s = prepare_s +. run_s;
    events = s.events;
    (* Joins are not counted as operations: on some seeds a joiner is reaped
       as stuck at drain (seed 105 + 104729 + 7919), so their failures would
       not be the same share in every run. They are counted per layer. *)
    attempted = s.leaves + lookups;
    failed = lookups - lookups_ok;
    counts;
    layer =
      counts
      @ [
          ("churn.stuck_reaped", fi s.stuck_reaped);
          ("churn.joins_skipped", fi s.joins_skipped);
          ("extensions.leave.installed", fi lr.installed);
          ("extensions.leave.fallback_local", fi lr.fallback_local);
          ("extensions.leave.fallback_flood", fi lr.fallback_flood);
          ("extensions.leave.emptied", fi lr.emptied);
          ("extensions.leave.messages", fi lr.messages);
          ("extensions.repair.suspicions", fi rr.suspicions);
          ("extensions.repair.tables_consulted", fi rr.tables_consulted);
        ]
      @ replay_layer;
    checks = checks @ replay_checks;
  }

let churn_episodes = 3

(* Sum per key, in first-seen order. *)
let sum_by_key lists =
  let keys =
    List.fold_left
      (fun acc (k, _) -> if List.mem k acc then acc else k :: acc)
      [] (List.concat lists)
  in
  List.rev_map
    (fun k ->
      let value l = Option.value ~default:0. (List.assoc_opt k l) in
      (k, List.fold_left (fun acc l -> acc +. value l) 0. lists))
    keys

(* One iteration is [churn_episodes] independent episodes, on seeds derived
   from the workload seed. A single episode's cost varies by about 10 % from
   seed to seed (mostly in leave-repair searches); the sum evens it out. *)
let churn tr ~seed ~full =
  let eps =
    List.init churn_episodes (fun k ->
        churn_episode tr ~seed:(seed + (7919 * k)) ~full ~replay:(k = churn_episodes - 1))
  in
  let sumf f = List.fold_left (fun acc e -> acc +. f e) 0. eps in
  let sumi f = List.fold_left (fun acc e -> acc + f e) 0 eps in
  {
    setup_s = median (List.map (fun e -> e.setup_s) eps);
    run_s = sumf (fun e -> e.run_s);
    wall_s = sumf (fun e -> e.wall_s);
    events = sumi (fun e -> e.events);
    attempted = sumi (fun e -> e.attempted);
    failed = sumi (fun e -> e.failed);
    counts =
      List.concat
        (List.mapi
           (fun k e -> List.map (fun (n, v) -> (Printf.sprintf "%d.%s" k n, v)) e.counts)
           eps);
    layer = sum_by_key (List.map (fun e -> e.layer) eps);
    checks = List.concat_map (fun e -> e.checks) eps;
  }

let all =
  [
    { name = "fig15b-d40"; iterate = fig15b ~d:40; after = no_after };
    { name = "scale-20k"; iterate = scale; after = scale_after };
    { name = "churn-leave-250"; iterate = churn; after = no_after };
  ]

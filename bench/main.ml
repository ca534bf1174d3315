(* Benchmark harness.

   Regenerates every table and figure of the paper's evaluation (Section 5.2,
   Figure 15) plus the comparison/ablation experiments from DESIGN.md, then
   runs Bechamel microbenchmarks of the core operations.

   Usage:
     dune exec bench/main.exe                 -- everything, default scale
     dune exec bench/main.exe -- fig15a       -- only that section
     dune exec bench/main.exe -- --full ...   -- paper-scale router topology
     dune exec bench/main.exe -- --smoke ...  -- tiny parameters (CI smoke)
     dune exec bench/main.exe -- --jobs 4 ... -- fan independent runs out to
                                                 4 domains (0 = all cores;
                                                 NTCU_JOBS works too)

   Sections: fig15a fig15b avg-vs-bound theorem3 theorem4 baseline msgsize
             census latency-ablation optimize churn churn-steady serve scale
             arena assumption resilience fault perf micro

   Every independent-run sweep (the four fig15b setups, the 300-run Theorem 4
   estimator, the size-mode and latency-model ablations, the fault-injection
   loss x crash grid) goes through Ntcu_std.Parallel.map, which returns
   results in submission order — so all tables and JSON artifacts are
   byte-identical across --jobs values; --jobs 1 (the default) is exactly
   the serial path.

   The perf section writes BENCH_perf.json (see EXPERIMENTS.md for the
   schema) in the current directory. *)

module Id = Ntcu_id.Id
module Params = Ntcu_id.Params
module Experiment = Ntcu_harness.Experiment
module Report = Ntcu_harness.Report
module Join_cost = Ntcu_analysis.Join_cost
module Stats = Ntcu_std.Stats

let pf = Format.printf

let section name = pf "@.=== %s ===@." name

let mean_int a = Stats.mean (Stats.of_ints a)

(* The worker pool for independent-run sweeps; set once in [main] from
   --jobs / NTCU_JOBS before any section runs. [pmap] preserves submission
   order, so every consumer below can treat it as List.map. *)
let pool : Ntcu_std.Parallel.t option ref = ref None

let pmap f xs =
  match !pool with Some p -> Ntcu_std.Parallel.map p f xs | None -> List.map f xs

let pool_jobs () = match !pool with Some p -> Ntcu_std.Parallel.jobs p | None -> 1

(* Sections that run without loss or churn claim consistency in their
   tables; [claim] records a broken claim so [main] exits non-zero instead
   of burying a "NO" in a wall of text. Crash regimes (the fault grid, the
   steady-state churn engine) claim the Best_effort contract instead —
   liveness and quiescence, with consistency reported but not gated (see
   Experiment.claim). Only the assumption ablation, whose whole point is to
   exhibit violations, bypasses [claim] entirely. *)
let failed = ref false

let claim name cond =
  if not cond then begin
    failed := true;
    pf "CLAIM FAILED: %s@." name
  end;
  cond

(* ---- Figure 15(a): theoretical upper bound of E(J) ---- *)

let fig15a () =
  section "Figure 15(a): upper bound of E(J) vs n (Theorem 5), b = 16";
  let ns = List.init 10 (fun i -> 10_000 * (i + 1)) in
  List.iter
    (fun (m, d) ->
      let label = Printf.sprintf "m=%d, b=16, d=%d" m d in
      let series = Experiment.fig15a_series ~b:16 ~d ~m ~ns in
      pf "%a" (Report.pp_fig15a_curve ~label) series)
    [ (500, 40); (1000, 40); (500, 8); (1000, 8) ]

(* ---- Figure 15(b): simulated CDF of JoinNotiMsg per joining node ---- *)

let paper_measured = [ 6.117; 6.051; 5.026; 5.399 ]

let fig15b_runs ~routers () =
  (* Each run builds its own topology, latency model, network and RNGs
     inside the thunk, so the four setups are free to run on four domains. *)
  pmap
    (fun (i, setup) -> (setup, Experiment.fig15b ~routers ~seed:(100 + i) setup))
    (List.mapi (fun i setup -> (i, setup)) Experiment.paper_setups)

let fig15b ~routers () =
  section "Figure 15(b): CDF of # JoinNotiMsg sent by a joining node";
  pf "router topology: %d routers@." (Ntcu_topology.Transit_stub.router_count routers);
  let runs = fig15b_runs ~routers () in
  List.iter
    (fun ((setup : Experiment.fig15b_setup), (run : Experiment.join_run)) ->
      let label =
        Printf.sprintf "n=%d, m=%d, b=16, d=%d%s" setup.n setup.m setup.d
          (if
             claim
               (Printf.sprintf "fig15b n=%d d=%d consistent" setup.n setup.d)
               (Experiment.ok run)
           then ""
           else "  [INCONSISTENT!]")
      in
      pf "%a" (Report.pp_cdf ~label) (Experiment.cdf_points run.join_noti))
    runs;
  runs

let avg_vs_bound runs =
  section "Section 5.2 in-text: average JoinNotiMsg vs Theorem-5 bound";
  let rows =
    List.map2
      (fun ((setup : Experiment.fig15b_setup), (run : Experiment.join_run)) paper_avg ->
        let label = Printf.sprintf "n=%d d=%d" setup.n setup.d in
        ( label,
          mean_int run.join_noti,
          Join_cost.theorem5_bound (Params.make ~b:16 ~d:setup.d) ~n:setup.n ~m:setup.m,
          paper_avg ))
      runs paper_measured
  in
  pf "%a" Report.pp_avg_vs_bound rows

(* ---- Theorem 3: CpRst + JoinWait <= d + 1 ---- *)

let theorem3 runs =
  section "Theorem 3: CpRstMsg + JoinWaitMsg per join <= d + 1";
  List.iter
    (fun ((setup : Experiment.fig15b_setup), (run : Experiment.join_run)) ->
      let worst = Array.fold_left max 0 run.cp_wait in
      pf "n=%d d=%d: mean %.3f, max %d, bound %d  %s@." setup.n setup.d
        (mean_int run.cp_wait) worst (setup.d + 1)
        (if
           claim
             (Printf.sprintf "theorem3 n=%d d=%d" setup.n setup.d)
             (worst <= setup.d + 1)
         then "OK"
         else "VIOLATED"))
    runs

(* ---- Theorem 4: exact E(J) for a single join vs simulation ---- *)

let theorem4 () =
  section "Theorem 4: E(J) for a single join, closed form vs simulation";
  (* J is heavy-tailed (a rare low notification level makes the set, and
     hence J, an order of magnitude larger), so the standard error matters. *)
  let p = Params.make ~b:16 ~d:8 in
  List.iter
    (fun n ->
      let expected = Join_cost.expected_join_noti p ~n in
      let runs = 300 in
      let samples =
        Array.of_list
          (pmap
             (fun seed ->
               let run = Experiment.concurrent_joins p ~seed:((seed + 1) * 7) ~n ~m:1 () in
               float_of_int run.join_noti.(0))
             (List.init runs Fun.id))
      in
      let avg = Stats.mean samples in
      let stderr = Stats.stddev samples /. sqrt (float_of_int runs) in
      pf "n=%5d: closed form %.3f, simulated %.3f +/- %.3f (%d joins)@." n expected avg
        stderr runs)
    [ 200; 500; 1000 ]

(* ---- Baseline comparison: state placement and concurrency safety ---- *)

let baseline () =
  section "Baseline: multicast join (Tapestry-style) vs this paper's protocol";
  let p = Params.make ~b:16 ~d:8 in
  let n = 500 and m = 200 in
  let ours = Experiment.concurrent_joins p ~seed:11 ~n ~m () in
  let base_seq = Experiment.baseline_run p ~seed:11 ~n ~m ~concurrent:false in
  let base_con = Experiment.baseline_run p ~seed:11 ~n ~m ~concurrent:true in
  pf "%a"
    (Report.table
       ~header:[ "protocol"; "workload"; "consistent"; "peak state@existing"; "state slots" ])
    [
      [
        "this paper";
        "concurrent";
        (if claim "baseline: this paper consistent" (Experiment.ok ours) then "yes"
         else "NO");
        "0";
        "0";
      ];
      [
        "multicast";
        "sequential";
        (if base_seq.base_consistent then "yes" else "NO");
        string_of_int base_seq.peak_pending;
        string_of_int base_seq.pending_slots;
      ];
      [
        "multicast";
        "concurrent";
        (if base_con.base_consistent then "yes"
         else Printf.sprintf "NO (%d violations)" base_con.base_violations);
        string_of_int base_con.peak_pending;
        string_of_int base_con.pending_slots;
      ];
    ]

(* ---- Section 6.2 ablation: message-size reduction ---- *)

let msgsize () =
  section "Section 6.2 ablation: bytes sent per size mode";
  let p = Params.make ~b:16 ~d:8 in
  let n = 500 and m = 200 in
  let results =
    pmap
      (fun (mode, name) ->
        let run = Experiment.concurrent_joins ~size_mode:mode p ~seed:21 ~n ~m () in
        let bytes = Ntcu_core.Stats.bytes_sent (Ntcu_core.Network.global_stats run.net) in
        (name, Experiment.ok run, bytes))
      [
        (Ntcu_core.Message.Full, "full tables");
        (Ntcu_core.Message.Level_range, "level range");
        (Ntcu_core.Message.Bit_vector, "level range + bit vector");
      ]
  in
  let rows =
    List.map
      (fun (name, ok, bytes) ->
        [
          name;
          (if claim ("msgsize: " ^ name) ok then "yes" else "NO");
          string_of_int bytes;
          Printf.sprintf "%.1f" (float_of_int bytes /. float_of_int m /. 1024.);
        ])
      results
  in
  pf "%a" (Report.table ~header:[ "mode"; "consistent"; "total bytes"; "KiB per join" ]) rows

(* ---- Message census: big vs small messages (Section 5.2's distinction) ---- *)

let census () =
  section "Message census per join (big = table-carrying, small = rest)";
  let p = Params.make ~b:16 ~d:8 in
  let n = 1000 and m = 400 in
  let run = Experiment.concurrent_joins p ~seed:81 ~n ~m () in
  ignore (claim "census: setup run ok" (Experiment.ok run) : bool);
  let g = Ntcu_core.Network.global_stats run.net in
  let per_join k =
    float_of_int (Ntcu_core.Stats.sent g k) /. float_of_int m
  in
  let big =
    [
      Ntcu_core.Message.K_cp_rst;
      K_cp_rly;
      K_join_wait;
      K_join_wait_rly;
      K_join_noti;
      K_join_noti_rly;
    ]
  in
  let small =
    [
      Ntcu_core.Message.K_in_sys_noti;
      K_spe_noti;
      K_spe_noti_rly;
      K_rv_ngh_noti;
      K_rv_ngh_noti_rly;
    ]
  in
  let rows =
    List.map
      (fun k ->
        [
          Ntcu_core.Message.kind_name k;
          Printf.sprintf "%.3f" (per_join k);
          (if List.mem k big then "big (request/reply)" else "small");
        ])
      (big @ small)
  in
  pf "%a" (Report.table ~header:[ "message"; "sent per join"; "class" ]) rows;
  pf
    "(replies mirror requests one-for-one; the paper analyzes CpRst/JoinWait — Theorem 3 \
     — and JoinNoti — Theorems 4-5; small-message counts were deferred to the technical \
     report)@."

(* ---- Latency-model ablation ---- *)

let latency_ablation () =
  section "Ablation: latency model vs join cost (consistency must hold in all)";
  let p = Params.make ~b:16 ~d:8 in
  let n = 500 and m = 200 in
  (* Latency models are built inside the thunk: the transit-stub one owns a
     Distances cache, which is single-domain state and must belong to the
     domain that runs its simulation. *)
  let results =
    pmap
      (fun (make_latency, name) ->
        let run = Experiment.concurrent_joins ~latency:(make_latency ()) p ~seed:31 ~n ~m () in
        (name, Experiment.ok run, mean_int run.join_noti, run.events))
      [
        ((fun () -> Ntcu_sim.Latency.constant 1.0), "constant 1ms");
        ((fun () -> Ntcu_sim.Latency.uniform ~seed:1 ~lo:1. ~hi:100.), "uniform 1-100ms");
        ( (fun () ->
            let topo =
              Ntcu_topology.Transit_stub.generate ~seed:2
                Ntcu_topology.Transit_stub.default_config
            in
            let hosts = Ntcu_topology.Endhosts.attach ~seed:3 topo ~n:(n + m) in
            Ntcu_topology.Endhosts.latency ~seed:4 hosts),
          "transit-stub" );
      ]
  in
  let rows =
    List.map
      (fun (name, ok, avg_j, events) ->
        [
          name;
          (if claim ("latency-ablation: " ^ name) ok then "yes" else "NO");
          Printf.sprintf "%.3f" avg_j;
          string_of_int events;
        ])
      results
  in
  pf "%a" (Report.table ~header:[ "latency model"; "consistent"; "avg J"; "messages" ]) rows

(* ---- Optimization extension: route stretch before/after ---- *)

let optimize () =
  section "Extension: neighbor-table optimization (route stretch)";
  let n = 300 and m = 100 in
  let routers = Ntcu_topology.Transit_stub.default_config in
  let topo = Ntcu_topology.Transit_stub.generate ~seed:42 routers in
  let hosts = Ntcu_topology.Endhosts.attach ~seed:43 topo ~n:(n + m) in
  let p = Params.make ~b:16 ~d:8 in
  let rng = Ntcu_std.Rng.create 44 in
  let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n in
  let joiners =
    Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:m
  in
  let net =
    Ntcu_core.Network.create ~latency:(Ntcu_topology.Endhosts.latency ~seed:45 hosts) p
  in
  Ntcu_core.Network.seed_consistent net ~seed:46 seeds;
  List.iter
    (fun id -> Ntcu_core.Network.start_join net ~id ~gateway:(List.hd seeds) ())
    joiners;
  Ntcu_core.Network.run net;
  ignore
    (claim "optimize: setup consistent"
       (List.is_empty (Ntcu_core.Network.check_consistent net))
      : bool);
  (* Host index = registration order, matching the attach order. *)
  let host_index = Id.Tbl.create 512 in
  List.iteri (fun i id -> Id.Tbl.replace host_index id i) (Ntcu_core.Network.ids net);
  let dist a b =
    Ntcu_topology.Endhosts.distance hosts (Id.Tbl.find host_index a)
      (Id.Tbl.find host_index b)
  in
  let before =
    Ntcu_extensions.Optimize.average_route_stretch net ~dist ~seed:5 ~samples:500
  in
  let improved = Ntcu_extensions.Optimize.optimize ~max_passes:5 net ~dist in
  let after =
    Ntcu_extensions.Optimize.average_route_stretch net ~dist ~seed:5 ~samples:500
  in
  pf "entries improved: %d@." improved;
  pf "average route stretch: %.3f before, %.3f after@." before after;
  pf "still consistent: %b@."
    (claim "optimize: consistent after optimization"
       (List.is_empty (Ntcu_core.Network.check_consistent net)))

(* ---- Assumption ablation: what the paper's assumptions buy ---- *)

let assumption () =
  section "Assumption ablation: reliable delivery (iii) and no deletion during joins (iv)";
  let p = Params.make ~b:16 ~d:8 in
  let n = 300 and m = 150 in
  (* (iii): message loss wedges joins (liveness), it does not corrupt tables
     of nodes that did complete. *)
  pf "-- assumption (iii): in-transit message loss@.";
  let rows =
    List.map
      (fun loss ->
        let rng = Ntcu_std.Rng.create 51 in
        let seeds = Ntcu_harness.Workload.distinct_ids rng p ~n in
        let joiners =
          Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds) rng p ~n:m
        in
        let net =
          Ntcu_core.Network.create ~loss:(loss, 52)
            ~latency:(Ntcu_sim.Latency.uniform ~seed:53 ~lo:1. ~hi:100.)
            p
        in
        Ntcu_core.Network.seed_consistent net ~seed:54 seeds;
        let gateways = Array.of_list seeds in
        List.iter
          (fun id ->
            Ntcu_core.Network.start_join net ~id
              ~gateway:(Ntcu_std.Rng.pick rng gateways) ())
          joiners;
        Ntcu_core.Network.run net;
        [
          Printf.sprintf "%.1f%%" (100. *. loss);
          string_of_int (Ntcu_core.Network.messages_lost net);
          string_of_int (List.length (Ntcu_core.Network.stuck_joiners net));
        ])
      [ 0.0; 0.001; 0.01; 0.05; 0.2 ]
  in
  pf "%a" (Report.table ~header:[ "loss rate"; "messages lost"; "wedged joiners" ]) rows;
  (* (iv): leaves DURING the join window can strand joiners and leave
     dangling references; epoch-separated churn (the theorem's regime) never
     does. *)
  pf "-- assumption (iv): node deletion during the join window@.";
  let mixed_run ~interleave seed =
    let rng = Ntcu_std.Rng.create seed in
    let seeds_ids = Ntcu_harness.Workload.distinct_ids rng p ~n in
    let joiners =
      Ntcu_harness.Workload.distinct_ids ~avoid:(Id.Set.of_list seeds_ids) rng p ~n:m
    in
    let net =
      Ntcu_core.Network.create
        ~latency:(Ntcu_sim.Latency.uniform ~seed:(seed + 1) ~lo:1. ~hi:100.)
        p
    in
    Ntcu_core.Network.seed_consistent net ~seed:(seed + 2) seeds_ids;
    let gateways = Array.of_list seeds_ids in
    List.iter
      (fun id ->
        Ntcu_core.Network.start_join net ~id ~gateway:(Ntcu_std.Rng.pick rng gateways) ())
      joiners;
    let lp = Ntcu_extensions.Leave_protocol.create net in
    let victims = Array.of_list seeds_ids in
    Ntcu_std.Rng.shuffle rng victims;
    let victims = Array.sub victims 0 30 in
    if interleave then
      (* Leaves fire inside the join window. *)
      Array.iter
        (fun id ->
          Ntcu_extensions.Leave_protocol.request_leave lp
            ~at:(Ntcu_std.Rng.float rng 150.) id)
        victims
    else begin
      (* Epoch-separated: joins first, then leaves. *)
      Ntcu_core.Network.run net;
      Array.iter (fun id -> Ntcu_extensions.Leave_protocol.request_leave lp id) victims
    end;
    Ntcu_core.Network.run net;
    let wedged = List.length (Ntcu_core.Network.stuck_joiners net) in
    let violations =
      List.length (Ntcu_table.Check.violations (Ntcu_core.Network.tables net))
    in
    (wedged, violations)
  in
  let rows =
    List.concat_map
      (fun (interleave, label) ->
        List.map
          (fun seed ->
            let wedged, violations = mixed_run ~interleave seed in
            [ label; string_of_int seed; string_of_int wedged; string_of_int violations ])
          [ 61; 62; 63 ])
      [ (false, "epoch-separated"); (true, "interleaved") ]
  in
  pf "%a"
    (Report.table ~header:[ "schedule"; "seed"; "wedged joiners"; "violations" ])
    rows

(* ---- Churn extensions: leaves and failure recovery ---- *)

let churn () =
  section "Extensions: message-level leaves and failure recovery under churn";
  let p = Params.make ~b:16 ~d:8 in
  let run = Experiment.concurrent_joins p ~seed:41 ~n:600 ~m:200 () in
  ignore (claim "churn: setup run ok" (Experiment.ok run) : bool);
  let net = run.net in
  (* A quarter of the network leaves concurrently. *)
  let lp = Ntcu_extensions.Leave_protocol.create net in
  let leavers = fst (Ntcu_harness.Workload.split 200 (Ntcu_core.Network.ids net)) in
  List.iter (fun id -> Ntcu_extensions.Leave_protocol.request_leave lp id) leavers;
  Ntcu_extensions.Leave_protocol.run lp;
  let lr = Ntcu_extensions.Leave_protocol.report lp in
  pf "concurrent leaves: %a@." Ntcu_extensions.Leave_protocol.pp_report lr;
  pf "consistent after leaves: %b@."
    (claim "churn: consistent after leaves"
       (List.is_empty (Ntcu_table.Check.violations (Ntcu_core.Network.tables net))));
  (* Then crash fractions of the survivors and repair. *)
  List.iter
    (fun fraction ->
      let run = Experiment.concurrent_joins p ~seed:42 ~n:600 ~m:200 () in
      ignore (claim "churn: pre-crash run ok" (Experiment.ok run) : bool);
      ignore (Ntcu_extensions.Recovery.fail_random run.net ~seed:43 ~fraction);
      let report = Ntcu_extensions.Recovery.repair run.net in
      (* Crashes here are epoch-separated (the network was quiescent), so
         repair must restore full consistency — unlike the crash-over-join
         grids in [fault], where it is best-effort. *)
      pf "fail %2.0f%%: %a; consistent: %b@." (100. *. fraction)
        Ntcu_extensions.Recovery.pp_report report
        (claim
           (Printf.sprintf "churn: consistent after repair at %.0f%%"
              (100. *. fraction))
           (List.is_empty
              (Ntcu_table.Check.violations (Ntcu_core.Network.tables run.net)))))
    [ 0.05; 0.15; 0.30; 0.50 ]

(* ---- Continuous churn: steady-state engine + half-life sweep ---- *)

(* Unlike [churn] above (epoch-separated leave/crash batches on a quiescent
   network), this drives lib/churn's open system: Poisson arrivals against
   expiring sessions at the target size, sampled over virtual hours, then a
   downward half-life sweep to locate the measured churn tolerance. The
   claim is Best_effort — under crash churn, consistency is one of the
   measured series, not a guarantee. Writes BENCH_churn.json
   (ntcu-bench-churn/1; same schema as `ntcu churn`). *)
let churn_steady ~smoke () =
  section "Continuous churn: steady state + half-life sweep (writes BENCH_churn.json)";
  let module Churn = Ntcu_churn.Churn in
  let base =
    if smoke then Churn.smoke
    else
      {
        Churn.default with
        n = 250;
        duration = 1_200_000.;
        (* 20 virtual minutes at a 10-minute half-life: ~2.4 population
           turnovers, enough for the tail window to be steady state. *)
        half_life = 600_000.;
        sample_every = 30_000.;
      }
  in
  let result = Churn.run base in
  pf "%a@." Churn.pp_result result;
  ignore
    (claim "churn-steady: sustained and drained (best-effort)"
       (Churn.ok ~claim:Experiment.Best_effort result)
      : bool);
  (* The smoke config deliberately sits below its predicted tolerance (a
     1-minute half-life against a ~2-minute prediction), so only the default
     scale claims a clean bill of health at the base half-life. *)
  if not smoke then
    ignore
      (claim "churn-steady: healthy at base half-life"
         (List.is_empty (Churn.health base result.Churn.summary))
        : bool);
  let points = if smoke then 2 else 3 in
  let sweep =
    match !pool with
    | Some p -> Churn.sweep p ~base ~points
    | None -> assert false
  in
  pf "%a@." Churn.pp_sweep sweep;
  Report.Json.to_file "BENCH_churn.json" (Churn.bench_json ~sweep result);
  pf "wrote BENCH_churn.json@."

(* ---- Heavy-traffic object-location serving ---- *)

(* The PRR-style directory under a production-shaped workload: Zipf-popular
   replicated objects, sustained lookups from random clients, the LRU
   hop-pointer cache ablated off and on, and the same workload composed with
   the continuous-churn driver (incremental directory maintenance +
   re-replication each serve tick). The static correctness claim is strict —
   every lookup must return the complete replica set, cache or not; the
   under-churn tail-success claim is gated at the churn bench's base
   half-life. Writes BENCH_serve.json (ntcu-bench-serve/1; same schema as
   `ntcu serve`). *)
let serve ~smoke () =
  section "Object-location serving: Zipf workload + cache ablation (writes BENCH_serve.json)";
  let module Serve = Ntcu_serve.Serve in
  let module Churn = Ntcu_churn.Churn in
  let cfg = if smoke then Serve.smoke else Serve.default in
  let churn_cfg =
    if smoke then Churn.smoke
    else
      (* The churn bench's base point (churn_steady above): n = 250, 20
         virtual minutes at a 10-minute half-life. *)
      {
        Churn.default with
        n = 250;
        duration = 1_200_000.;
        half_life = 600_000.;
        sample_every = 30_000.;
      }
  in
  let abl, churn =
    match !pool with
    | Some p -> Serve.run_all p cfg churn_cfg
    | None -> assert false
  in
  pf "static, cache off:@.%a@.@." Serve.pp_summary abl.Serve.nocache;
  pf "static, cache %d:@.%a@.@." cfg.Serve.cache Serve.pp_summary abl.Serve.cached;
  pf "under churn (n=%d, half-life %gs):@.%a@." churn_cfg.Churn.n
    (churn_cfg.Churn.half_life /. 1000.)
    Serve.pp_churn_run churn;
  ignore
    (claim "serve: every static lookup finds the complete replica set (cache off)"
       (Serve.static_ok abl.Serve.nocache)
      : bool);
  ignore
    (claim "serve: every static lookup finds the complete replica set (cache on)"
       (Serve.static_ok abl.Serve.cached)
      : bool);
  ignore
    (claim "serve: hop-pointer cache lowers mean pointer-hit depth"
       (Serve.cache_improves ~nocache:abl.Serve.nocache ~cached:abl.Serve.cached)
      : bool);
  (* As for churn-steady: the smoke config deliberately churns past its
     predicted tolerance, so only the default scale claims the serving SLO. *)
  if not smoke then
    ignore
      (claim "serve: tail lookup resolution >= 0.99 under churn at base half-life"
         (Serve.churn_ok churn)
        : bool);
  Report.Json.to_file "BENCH_serve.json" (Serve.bench_json cfg abl churn);
  pf "wrote BENCH_serve.json@."

(* ---- Sharded scale engine: packed ids + arena storage at 10^5 nodes ---- *)

(* Drives lib/scale's sharded epoch engine over a population curve and writes
   BENCH_scale.json. The payload section of each run is a deterministic
   function of the configuration (byte-identical for every --jobs value), so
   the artifact is diffable across machines; wall time, events/s and GC peak
   live in the host section. The memory claim compares the arena's
   deterministic bytes/node at the largest population against a record-backed
   consistent network measured at 10k nodes — the scale-up must at least
   halve per-node state. *)
let scale ~smoke () =
  section "Scale: sharded epoch engine, packed ids + arena storage (writes BENCH_scale.json)";
  let module Scale_bench = Ntcu_harness.Scale_bench in
  let jobs = pool_jobs () in
  let configs =
    if smoke then [ Scale_bench.smoke_config ]
    else
      List.map
        (fun n -> Scale_bench.default_config ~n ())
        [ 10_000; 50_000; 100_000 ]
  in
  let runs =
    List.map
      (fun cfg ->
        let r = Scale_bench.measure ~jobs cfg in
        pf "%a@." Scale_bench.pp_run r;
        ignore
          (claim
             (Printf.sprintf "scale: n=%d complete and consistent" cfg.Scale_bench.Scale.n)
             (Scale_bench.ok r)
            : bool);
        r)
      configs
  in
  let control = Scale_bench.control_bytes_per_node Ntcu_id.Params.paper_sim_d8 in
  pf "record-backed control at 10k nodes: %.1f bytes/node@." control;
  if not smoke then begin
    let last = List.nth runs (List.length runs - 1) in
    ignore
      (claim "scale: arena bytes/node at 100k <= half the record control at 10k"
         (Scale_bench.bytes_per_node last.Scale_bench.summary <= control /. 2.)
        : bool)
  end;
  Report.Json.to_file "BENCH_scale.json"
    (Scale_bench.bench_json ~control_bytes_per_node:control runs);
  pf "wrote BENCH_scale.json@."

(* ---- Protocol arena: paper vs Chord vs baseline, head to head ---- *)

(* Runs every arm of the pluggable-protocol arena — the paper's protocol,
   corrected Chord, the multicast baseline and naive Chord — on the identical
   seeded topology, join/leave schedule and lookup pairs, and writes the
   paired report to BENCH_arena.json (byte-identical across --jobs values).
   The production arms (paper, corrected Chord) must pass their own
   invariants; the naive-Chord arm is the designed differential and must NOT
   — silent departures break its ring where successor redundancy and the
   paper's repair survive. The baseline column is comparison data only: its
   concurrency unsafety is already claimed by the [baseline] section, and
   whether the races fire here depends on the scale. *)
let arena ~smoke () =
  section "Protocol arena: paper vs Chord vs baseline (writes BENCH_arena.json)";
  let module Arena = Ntcu_harness.Arena in
  let base = if smoke then Arena.smoke else Arena.default in
  let cfg =
    { base with
      Arena.arms = [ Arena.Paper; Arena.Chord; Arena.Baseline; Arena.Chord_naive ] }
  in
  let report = Arena.run ~jobs:(pool_jobs ()) cfg in
  pf "%a@." Arena.pp_report report;
  List.iter
    (fun (r : Arena.arm_result) ->
      let name = Arena.arm_name r.Arena.arm in
      match r.Arena.arm with
      | Arena.Chord_naive ->
        ignore
          (claim "arena: naive chord exhibits the differential (violations expected)"
             (not (Arena.arm_ok r))
            : bool)
      | Arena.Baseline -> ()
      | Arena.Paper | Arena.Chord ->
        ignore (claim (Printf.sprintf "arena: %s arm invariants" name) (Arena.arm_ok r) : bool);
        ignore
          (claim
             (Printf.sprintf "arena: %s arm answers every lookup" name)
             (r.Arena.lookups_attempted > 0
             && r.Arena.lookups_ok = r.Arena.lookups_attempted)
            : bool))
    report.Arena.results;
  Arena.write ~path:"BENCH_arena.json" report;
  pf "wrote BENCH_arena.json@."

(* ---- Backup neighbors: routing resilience before repair ---- *)

let resilience () =
  section "Backup neighbors (Section 2.1): routing success right after crashes, before repair";
  let p = Params.make ~b:16 ~d:8 in
  let rows =
    List.map
      (fun fraction ->
        let run = Experiment.concurrent_joins p ~seed:71 ~n:400 ~m:400 () in
        ignore (claim "resilience: setup run ok" (Experiment.ok run) : bool);
        let net = run.net in
        ignore (Ntcu_extensions.Recovery.fail_random net ~seed:72 ~fraction);
        let alive x =
          Ntcu_core.Network.mem net x && not (Ntcu_core.Network.is_failed net x)
        in
        let lookup x = Option.map Ntcu_core.Node.table (Ntcu_core.Network.node net x) in
        let live = Array.of_list (Ntcu_core.Network.live_ids net) in
        let rng = Ntcu_std.Rng.create 73 in
        let plain = ref 0 and resilient = ref 0 in
        let total = 2000 in
        for _ = 1 to total do
          let src = Ntcu_std.Rng.pick rng live and dst = Ntcu_std.Rng.pick rng live in
          (match Ntcu_routing.Route.route ~lookup ~src ~dst with
          | Ok path when List.for_all alive path -> incr plain
          | Ok _ | Error _ -> ());
          match Ntcu_routing.Route.route_resilient ~lookup ~alive ~src ~dst with
          | Ok _ -> incr resilient
          | Error _ -> ()
        done;
        let pct x = Printf.sprintf "%.1f%%" (100. *. float_of_int x /. float_of_int total) in
        [ Printf.sprintf "%.0f%%" (100. *. fraction); pct !plain; pct !resilient ])
      [ 0.05; 0.1; 0.2; 0.3 ]
  in
  pf "%a"
    (Report.table
       ~header:[ "crashed"; "primaries only"; "with backup neighbors" ])
    rows

(* ---- Fault injection: the reliability layer vs loss and crashes ---- *)

let fault ~smoke () =
  section "Fault injection: ack/retransmit + suspicion + online repair vs loss and crashes";
  let p = Params.make ~b:16 ~d:8 in
  let n = if smoke then 60 else 300 in
  let m = if smoke then 8 else 100 in
  let cell (f : Experiment.fault_run) =
    Printf.sprintf "%s/%s%s"
      (if f.run.all_in_system then "live" else Printf.sprintf "%d stuck" f.stuck)
      (if Experiment.consistent f.run then "ok"
       else Printf.sprintf "%d viol" (List.length (Lazy.force f.run.violations)))
      (if f.retransmissions > 0 then Printf.sprintf " (%d rtx)" f.retransmissions else "")
  in
  let losses = if smoke then [ 0.02 ] else [ 0.01; 0.02; 0.05 ] in
  let crashes = if smoke then [ 0.0; 0.02 ] else [ 0.0; 0.01; 0.03 ] in
  (* The loss x crash grid is flattened into one batch of independent cells
     (each with its own network, loss RNG and crash schedule), then folded
     back into rows — the ordered map keeps the table identical to the
     serial nesting. *)
  let grid = List.concat_map (fun loss -> List.map (fun c -> (loss, c)) crashes) losses in
  let cells =
    pmap
      (fun (loss, crash_fraction) ->
        Experiment.fault_injection ~loss ~crash_fraction p ~seed:91 ~n ~m ())
      grid
  in
  (* The defended claim in this regime is Best_effort: every cell must end
     live and quiescent; residual holes are reported in the table but not
     gated (crash-over-join repair is legitimately best-effort). *)
  List.iter2
    (fun (loss, crash_fraction) (f : Experiment.fault_run) ->
      ignore
        (claim
           (Printf.sprintf "fault: loss=%.2f crash=%.2f live (best-effort)" loss
              crash_fraction)
           (Experiment.ok ~claim:Experiment.Best_effort f.run)
          : bool))
    grid cells;
  let rows =
    List.mapi
      (fun i loss ->
        Printf.sprintf "%.0f%%" (100. *. loss)
        :: List.mapi
             (fun j _ -> cell (List.nth cells ((i * List.length crashes) + j)))
             crashes)
      losses
  in
  let header =
    "loss \\ crash"
    :: List.map (fun c -> Printf.sprintf "%.0f%% crash" (100. *. c)) crashes
  in
  pf "n=%d, m=%d, retransmit ON:@." n m;
  pf "%a" (Report.table ~header) rows;
  (* Control: the same workload with the transport disabled reproduces the
     undefended wedge (assumption-(iii) ablation). *)
  let off =
    Experiment.fault_injection ~reliable:false ~loss:0.02 ~crash_fraction:0. p ~seed:91 ~n
      ~m ()
  in
  pf "retransmit OFF control (2%% loss, no crash): %d stuck joiners, %d lost@." off.stuck
    off.lost;
  let detail =
    Experiment.fault_injection ~loss:0.02
      ~crash_fraction:(if smoke then 0.02 else 0.01)
      p ~seed:92 ~n ~m ()
  in
  pf "detail (2%% loss + crash): %a" Report.pp_fault_run detail

(* ---- Performance regression bench: fig15b-style runs, timed ---- *)

(* Times the simulation hot path (event queue, shortest-path latencies,
   codec-backed size accounting) on fig15b-style workloads and writes the
   measurements to BENCH_perf.json so CI can archive them and a reviewer can
   diff runs. Wall time is the regression signal; events/sec normalizes it
   across scales; top_heap_words and the Dijkstra cache counters explain
   regressions (allocation blow-up vs cache thrash). *)
let perf ~full ~smoke () =
  section "Performance: fig15b-style runs (writes BENCH_perf.json)";
  let scale, routers, setups =
    if smoke then
      ("smoke", Ntcu_topology.Transit_stub.default_config, [ { Experiment.d = 8; n = 150; m = 50 } ])
    else if full then ("full", Ntcu_topology.Transit_stub.paper_config, Experiment.paper_setups)
    else
      ( "default",
        Ntcu_topology.Transit_stub.scaled_config,
        [ { Experiment.d = 8; n = 3096; m = 1000 }; { Experiment.d = 40; n = 3096; m = 1000 } ] )
  in
  let jobs = pool_jobs () in
  pf "scale: %s, %d routers, jobs %d@." scale
    (Ntcu_topology.Transit_stub.router_count routers)
    jobs;
  let module J = Report.Json in
  let run_one (i, (setup : Experiment.fig15b_setup)) =
    let t0 = Unix.gettimeofday () in
    let run, hosts = Experiment.fig15b_instrumented ~routers ~seed:(100 + i) setup in
    let wall = Unix.gettimeofday () -. t0 in
    let gc = Gc.quick_stat () in
    let dist = Ntcu_topology.Endhosts.distances hosts in
    let ds = Ntcu_topology.Distances.stats dist in
    let events_per_s = float_of_int run.events /. wall in
    let row =
      [
        Printf.sprintf "n=%d m=%d d=%d" setup.n setup.m setup.d;
        Printf.sprintf "%.2f" wall;
        string_of_int run.events;
        Printf.sprintf "%.0f" events_per_s;
        string_of_int gc.top_heap_words;
        Printf.sprintf "%.4f" (Ntcu_topology.Distances.hit_rate dist);
        (if Experiment.ok run then "yes" else "NO");
      ]
    in
    let json =
      J.Obj
        [
          ("d", J.Int setup.d);
          ("n", J.Int setup.n);
          ("m", J.Int setup.m);
          ("seed", J.Int (100 + i));
          ("wall_s", J.Float wall);
          ("cpu_s", J.Float run.elapsed_cpu);
          ("events", J.Int run.events);
          ("events_per_s", J.Float events_per_s);
          ("top_heap_words", J.Int gc.top_heap_words);
          ("minor_collections", J.Int gc.minor_collections);
          ("major_collections", J.Int gc.major_collections);
          ( "dijkstra",
            J.Obj
              [
                ("queries", J.Int ds.queries);
                ("settled_hits", J.Int ds.settled_hits);
                ("state_hits", J.Int ds.state_hits);
                ("state_misses", J.Int ds.state_misses);
                ("evictions", J.Int ds.evictions);
                ("pops", J.Int ds.pops);
                ("hit_rate", J.Float (Ntcu_topology.Distances.hit_rate dist));
              ] );
          ("consistent", J.Bool (Experiment.consistent run));
          ("all_in_system", J.Bool run.all_in_system);
        ]
    in
    (row, json, wall, Experiment.ok run, setup)
  in
  (* Aggregate wall is elapsed time around the whole fan-out; the sum of
     per-run walls is what a serial execution would have cost (measured
     in-run, so it slightly inflates under core contention), making
     [speedup_vs_serial] a conservative estimate at --jobs 1 and an
     optimistic one beyond the physical core count. *)
  let t_all = Unix.gettimeofday () in
  let results = pmap run_one (List.mapi (fun i setup -> (i, setup)) setups) in
  let total_wall = Unix.gettimeofday () -. t_all in
  List.iter
    (fun (_, _, _, ok, (setup : Experiment.fig15b_setup)) ->
      ignore
        (claim (Printf.sprintf "perf: n=%d m=%d d=%d ok" setup.n setup.m setup.d) ok
          : bool))
    results;
  let rows = List.map (fun (r, _, _, _, _) -> r) results in
  let serial_wall =
    List.fold_left (fun acc (_, _, w, _, _) -> acc +. w) 0. results
  in
  let speedup = if total_wall > 0. then serial_wall /. total_wall else 1. in
  pf "%a"
    (Report.table
       ~header:
         [ "setup"; "wall s"; "events"; "events/s"; "top heap w"; "dijkstra hit"; "ok" ])
    rows;
  pf "total wall: %.2fs (per-run sum %.2fs, %.2fx vs serial at %d jobs)@." total_wall
    serial_wall speedup jobs;
  let doc =
    J.Obj
      [
        ("schema", J.String "ntcu-bench-perf/2");
        ("scale", J.String scale);
        ("routers", J.Int (Ntcu_topology.Transit_stub.router_count routers));
        ("jobs", J.Int jobs);
        ("total_wall_s", J.Float total_wall);
        ("serial_wall_s", J.Float serial_wall);
        ("speedup_vs_serial", J.Float speedup);
        ("runs", J.List (List.map (fun (_, j, _, _, _) -> j) results));
      ]
  in
  J.to_file "BENCH_perf.json" doc;
  pf "wrote BENCH_perf.json@."

(* ---- Bechamel microbenchmarks ---- *)

let micro () =
  section "Bechamel microbenchmarks";
  let open Bechamel in
  let p = Params.make ~b:16 ~d:8 in
  let run = Experiment.concurrent_joins p ~seed:3 ~n:200 ~m:100 () in
  let ids = Array.of_list (Ntcu_core.Network.ids run.net) in
  let lookup id = Option.map Ntcu_core.Node.table (Ntcu_core.Network.node run.net id) in
  let rng = Ntcu_std.Rng.create 9 in
  let tables = Ntcu_core.Network.tables run.net in
  let bench_route =
    Test.make ~name:"route"
      (Staged.stage (fun () ->
           let src = Ntcu_std.Rng.pick rng ids and dst = Ntcu_std.Rng.pick rng ids in
           ignore (Ntcu_routing.Route.route ~lookup ~src ~dst)))
  in
  let bench_check =
    Test.make ~name:"consistency-check-300-nodes"
      (Staged.stage (fun () -> ignore (Ntcu_table.Check.violations ~limit:1 tables)))
  in
  let bench_join =
    Test.make ~name:"join-into-50-node-network"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            ignore (Experiment.concurrent_joins p ~seed:!counter ~n:50 ~m:1 ())))
  in
  let bench_bound =
    Test.make ~name:"theorem5-bound-n100k-d40"
      (Staged.stage (fun () ->
           ignore (Join_cost.theorem5_bound (Params.make ~b:16 ~d:40) ~n:100_000 ~m:1000)))
  in
  (* Repair.find_live from one owner: a suffix a direct neighbor carries
     (one-hop hit), and the owner's full ID, which no other member carries
     (Not_found, settled by the carrier test). *)
  let owner = Ntcu_core.Node.table (Ntcu_core.Network.node_exn run.net ids.(0)) in
  let neighbor =
    Ntcu_table.Table.fold owner ~init:ids.(0) ~f:(fun acc ~level:_ ~digit:_ n _ ->
        if Ntcu_id.Id.equal acc ids.(0) then n else acc)
  in
  let bench_find_live name suffix =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Ntcu_extensions.Repair.find_live run.net ~owner ~suffix)))
  in
  let bench_find_hit = bench_find_live "find-live-one-hop-hit" (Ntcu_id.Id.suffix neighbor 1) in
  let bench_find_miss =
    bench_find_live "find-live-not-found" (Ntcu_id.Id.suffix ids.(0) p.Params.d)
  in
  let benchmarks =
    [ bench_route; bench_check; bench_join; bench_bound; bench_find_hit; bench_find_miss ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 1.0) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      (* Print in name order; Hashtbl.iter order would vary run to run. *)
      let rows =
        (Hashtbl.fold [@ntcu.allow "D002"])
          (fun name result acc -> (name, result) :: acc)
          results []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, result) ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> pf "%-40s %14.1f ns/run@." name est
          | Some _ | None -> pf "%-40s (no estimate)@." name)
        rows)
    benchmarks

(* Pull "--jobs N" / "--jobs=N" out of the argument list (so N is not
   mistaken for a section name) and return (jobs value, remaining args). *)
let extract_jobs args =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | Some _ | None -> failwith (Printf.sprintf "--jobs %s: expected a nonnegative integer" s)
  in
  let rec go acc jobs = function
    | [] -> (jobs, List.rev acc)
    | "--jobs" :: v :: rest -> go acc (Some (parse v)) rest
    | "--jobs" :: [] -> failwith "--jobs: missing value"
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
      go acc (Some (parse (String.sub a 7 (String.length a - 7)))) rest
    | a :: rest -> go (a :: acc) jobs rest
  in
  go [] None args

let () =
  let jobs_opt, args = extract_jobs (Array.to_list Sys.argv) in
  let jobs = Ntcu_std.Parallel.resolve_jobs jobs_opt in
  pool := Some (Ntcu_std.Parallel.create ~jobs);
  let full = List.exists (( = ) "--full") args in
  let smoke = List.exists (( = ) "--smoke") args in
  let routers =
    if full then Ntcu_topology.Transit_stub.paper_config
    else Ntcu_topology.Transit_stub.scaled_config
  in
  let sections =
    List.filter
      (fun a ->
        not (String.length a = 0 || a.[0] = '-' || Filename.check_suffix a ".exe"))
      (List.tl args)
  in
  let want name = sections = [] || List.mem name sections in
  if want "fig15a" then fig15a ();
  if want "fig15b" || want "avg-vs-bound" || want "theorem3" then begin
    let runs = fig15b ~routers () in
    if want "avg-vs-bound" then avg_vs_bound runs;
    if want "theorem3" then theorem3 runs
  end;
  if want "theorem4" then theorem4 ();
  if want "baseline" then baseline ();
  if want "msgsize" then msgsize ();
  if want "census" then census ();
  if want "latency-ablation" then latency_ablation ();
  if want "optimize" then optimize ();
  if want "assumption" then assumption ();
  if want "resilience" then resilience ();
  if want "churn" then churn ();
  if want "churn-steady" then churn_steady ~smoke ();
  if want "serve" then serve ~smoke ();
  if want "scale" then scale ~smoke ();
  if want "arena" then arena ~smoke ();
  if want "fault" then fault ~smoke ();
  if want "perf" then perf ~full ~smoke ();
  if want "micro" then micro ();
  (match !pool with Some p -> Ntcu_std.Parallel.shutdown p | None -> ());
  if !failed then begin
    pf "@.FAILED: a consistency claim above did not hold.@.";
    exit 1
  end;
  pf "@.done.@."

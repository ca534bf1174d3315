(* Benchmark entry point: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
     main.exe --self-test        (the Def-3.8 oracle's planted-fault test)

   Untraced (--trace 0): whole rounds of iterations, one per input of the
   workload, are repeated for about S seconds (at least one round); the
   end-to-end metrics are trimmed means over the iterations.
   Traced (--trace 1): one untraced and one traced iteration; the per-layer
   metrics come from the traced one, whose counts must equal the untraced
   one's. The last line of standard output is the result as JSON. *)

module W = Workloads

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* Metric names and units; BENCHMARK.json declares the same sets. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("run_s", "s");
    ("wall_s", "s");
    ("sim_events_per_s", "1/s");
    ("peak_heap_mb", "MB");
  ]

(* Phase spans whose GC work is reported (the 2-domain scale pass is left
   out: its allocation is split across domains). *)
let gc_spans =
  [
    "setup";
    "topology.generate";
    "topology.attach";
    "core.seed";
    "core.start";
    "core.run";
    "table.check";
    "scale.setup";
    "scale.run";
    "churn.prepare";
    "churn.finish";
  ]

let per_layer =
  let s name = (name, "s") and c name = (name, "count") in
  [
    s "topology.generate_s";
    s "topology.attach_s";
    s "core.seed_s";
    s "core.start_s";
    s "table.check_s";
    s "core.run_s";
    s "core.run_self_s";
    s "topology.distance_s";
    c "topology.distance_queries";
    c "topology.dijkstra_pops";
    ("topology.settled_hit_rate", "ratio");
    c "topology.evictions";
    c "core.messages";
    ("core.bytes_sent", "B");
  ]
  @ List.map
      (fun k -> c ("core.sent." ^ Ntcu_core.Message.kind_name k))
      Ntcu_core.Message.
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
  @ [
      c "sim.events";
      c "sim.events_cancelled";
      c "core.retransmissions";
      c "core.acks";
      c "paper.join_noti_mean";
      c "paper.cp_wait_max";
      c "scale.frames";
    ]
  @ List.init 9 (fun k -> c ("scale.frames." ^ Ntcu_scale.Wire.kind_name k))
  @ [
      c "scale.epochs";
      c "wire.cross_batches";
      ("wire.cross_bytes", "B");
      ("node_store.bytes_per_node", "B/node");
      s "scale.setup_s";
      s "scale.run2_s";
      ("parallel.speedup", "ratio");
      ("scale.shard_imbalance", "ratio");
      c "scale.redirects";
      c "scale.deferrals";
      c "scale.stuck";
      c "scale.stabilize_fills";
      s "churn.prepare_s";
      s "churn.finish_s";
      c "churn.stuck_reaped";
      c "churn.joins_skipped";
      c "extensions.leave.installed";
      c "extensions.leave.fallback_local";
      c "extensions.leave.fallback_flood";
      c "extensions.leave.emptied";
      c "extensions.leave.messages";
      c "extensions.repair.suspicions";
      c "extensions.repair.tables_consulted";
      ("extensions.find_live_us", "us");
      ("routing.lookup_us", "us");
    ]
  @ List.concat_map
      (fun sp -> [ ("gc." ^ sp ^ ".alloc_mw", "Mw"); c ("gc." ^ sp ^ ".major_gcs") ])
      gc_spans
  @ [ s "trace.overhead_s" ]

(* ---- Output ---- *)

(* A metric the workload did not measure (a layer it does not reach) is 0. *)
let print_result ~correct ~attempted ~failed catalogue values =
  let metric (name, unit) =
    let v = Option.value ~default:0. (List.assoc_opt name values) in
    let v = if Float.is_finite v then v else 0. in
    Printf.printf "%-40s %.6g %s\n" name v unit;
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  let fields = List.map metric catalogue in
  Printf.printf "attempted %d, failed %d, correct %b\n" attempted failed correct;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " fields)

let report_checks checks =
  List.iter
    (fun (what, ok) -> if not ok then Printf.eprintf "CHECK FAILED: %s\n%!" what)
    checks;
  List.for_all snd checks

let self_test () =
  match Oracle.self_test () with
  | [] -> true
  | errors ->
    List.iter (Printf.eprintf "oracle self-test: %s\n%!") errors;
    false

let fresh_heap () = Gc.compact ()

(* ---- Untraced: repeat whole rounds for [seconds] ---- *)

let untraced (w : W.t) ~seed ~seconds =
  let tr = Spans.create ~enabled:false in
  let started = Spans.now () in
  let deadline = started +. seconds in
  (* OCaml 5.1 does not give memory back to the system, so the top heap is
     read after the first iteration: later ones may grow it by fragmentation. *)
  let peak_heap_mb = ref 0. in
  (* Iteration [i] runs input [i mod W.inputs]; a run is whole rounds. *)
  let rec loop acc i =
    fresh_heap ();
    let input = i mod W.inputs in
    let it = w.iterate tr ~seed:(W.input_seed seed input) ~full:(i < W.inputs) in
    if i = 0 then peak_heap_mb := mb_of_words (Gc.quick_stat ()).top_heap_words;
    Printf.printf "iteration %d (input %d): setup %.4f s, run %.4f s, wall %.4f s\n%!" i
      input it.setup_s it.run_s it.wall_s;
    let acc = it :: acc and i = i + 1 in
    (* Finish the round; start another only if a round of the mean length so
       far still ends before the deadline, so a run lasts about [seconds]. *)
    let now = Spans.now () in
    let round = float_of_int W.inputs *. (now -. started) /. float_of_int i in
    if i mod W.inputs <> 0 || now +. round <= deadline then loop acc i else List.rev acc
  in
  let its = loop [] 0 in
  let first_round = List.filteri (fun i _ -> i < W.inputs) its in
  let repeat_ok =
    List.for_all Fun.id
      (List.mapi
         (fun i (it : W.iteration) -> it.counts = (List.nth its (i mod W.inputs)).counts)
         its)
  in
  fresh_heap ();
  let _, after_checks = w.after tr ~seed (List.hd its) in
  let avg f = W.trimmed_mean (List.map f its) in
  let run_s = avg (fun it -> it.W.run_s) in
  let round_events = List.fold_left (fun acc it -> acc + it.W.events) 0 first_round in
  let correct =
    report_checks
      ((("counts repeat across iterations", repeat_ok)
       :: List.concat_map (fun it -> it.W.checks) first_round)
      @ after_checks)
  in
  Printf.printf "%s seed %d: %d iterations\n" w.name seed (List.length its);
  let sum f = List.fold_left (fun acc it -> acc + f it) 0 its in
  ( correct,
    sum (fun it -> it.W.attempted),
    sum (fun it -> it.W.failed),
    [
      ("setup_s", avg (fun it -> it.W.setup_s));
      ("run_s", run_s);
      ("wall_s", avg (fun it -> it.W.wall_s));
      ( "sim_events_per_s",
        float_of_int round_events /. float_of_int W.inputs /. run_s );
      ("peak_heap_mb", !peak_heap_mb);
    ] )

(* ---- Traced: per-layer metrics from spans and counts ---- *)

(* Set-up calls are repeated for a median, so their spans give a per-call
   median; every other phase gives its total over the iteration. *)
let per_call = [ "scale.setup"; "churn.prepare" ]

let span_metrics tr =
  let spans_named name =
    List.filter (fun s -> String.equal s.Spans.name name) tr.Spans.spans
  in
  let total name f = List.fold_left (fun acc s -> acc +. f s) 0. (spans_named name) in
  let time name =
    if List.mem name per_call then W.median (List.map Spans.duration (spans_named name))
    else total name Spans.duration
  in
  let gc name =
    let alloc, majors =
      match spans_named name with
      | s :: _ when List.mem name per_call -> (s.alloc_words, float_of_int s.major_gcs)
      | _ ->
        ( total name (fun s -> s.alloc_words),
          total name (fun s -> float_of_int s.major_gcs) )
    in
    [ ("gc." ^ name ^ ".alloc_mw", alloc /. 1e6); ("gc." ^ name ^ ".major_gcs", majors) ]
  in
  let distance = Spans.aggregate_total tr "topology.distance" in
  List.map
    (fun name -> (name ^ "_s", time name))
    [
      "topology.generate";
      "topology.attach";
      "core.seed";
      "core.start";
      "table.check";
      "core.run";
      "scale.setup";
      "churn.prepare";
      "churn.finish";
    ]
  @ [ ("core.run_self_s", time "core.run" -. distance); ("topology.distance_s", distance) ]
  @ List.concat_map gc gc_spans

let traced (w : W.t) ~seed ~spans_dir =
  let off = Spans.create ~enabled:false in
  fresh_heap ();
  let plain = w.iterate off ~seed ~full:true in
  fresh_heap ();
  let tr = Spans.create ~enabled:true in
  let it = w.iterate tr ~seed ~full:false in
  fresh_heap ();
  let after_layer, after_checks = w.after tr ~seed it in
  let same = plain.counts = it.counts in
  if not same then
    List.iter2
      (fun (k, a) (_, b) ->
        if a <> b then Printf.eprintf "count %s: untraced %g, traced %g\n" k a b)
      plain.counts it.counts;
  let correct =
    report_checks
      ((("traced counts = untraced counts", same) :: plain.checks)
      @ it.checks @ after_checks)
  in
  let run_id = Printf.sprintf "%s/seed-%d/%.0f" w.name seed (Spans.now ()) in
  (match spans_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" w.name seed) in
    Out_channel.with_open_text path (fun oc -> output_string oc (Spans.to_json tr ~run_id));
    Printf.printf "spans written to %s\n" path);
  ( correct,
    plain.attempted,
    plain.failed,
    it.layer @ after_layer @ span_metrics tr
    @ [ ("trace.overhead_s", it.run_s -. plain.run_s) ] )

(* ---- Command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_dir = ref None and self_test_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (untraced runs)");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ( "--spans-dir",
        Arg.String (fun d -> spans_dir := Some d),
        "DIR write the spans file here" );
      ("--self-test", Arg.Set self_test_only, " run the oracle self-test only");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [options]";
  if !self_test_only then
    if self_test () then print_endline "oracle self-test: ok" else exit 1
  else begin
    match List.find_opt (fun (w : W.t) -> String.equal w.name !workload) W.all with
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all));
      exit 2
    | Some w ->
      let oracle_ok = self_test () in
      let correct, attempted, failed, values, catalogue =
        if !trace = 0 then
          let c, a, f, v = untraced w ~seed:!seed ~seconds:!seconds in
          (c, a, f, v, end_to_end)
        else
          let c, a, f, v = traced w ~seed:!seed ~spans_dir:!spans_dir in
          (c, a, f, v, per_layer)
      in
      print_result ~correct:(correct && oracle_ok) ~attempted ~failed catalogue values
  end

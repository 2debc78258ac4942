(* The result line, and the per-layer metrics of a traced run. *)

module Metrics = Rdb_obs.Metrics

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The last line of stdout: one JSON object, every value with all its
   digits. *)
let print ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun { name; value; unit_ } ->
        if not (Float.is_finite value) then
          failwith (Printf.sprintf "metric %s is not a finite number" name);
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Every per-layer metric, per unit of work: [per] is the number of traced
   passes (JOB) or rounds (serve-mixed). A layer a workload does not
   exercise reads 0. [exec_ms] is the executor time of the traced stretch,
   materializations included; [client_ms] the summed client-side latency of
   served requests. *)
let per_layer layers totals ~per ~gen_s ~analyze_s ~exec_ms ~client_ms
    ~overhead_pct =
  let span name = Layers.span_ms totals name /. per in
  let self name = Layers.self_ms totals name /. per in
  let counter name = Layers.counter layers name /. per in
  let timer name =
    let ms, _, _ = Layers.timer layers name in
    ms /. per
  in
  let exec_work = Layers.counter layers "exec.work" in
  let _, exec_minor, exec_promoted = Layers.timer layers "execute" in
  let direct = if exec_minor > 0.0 then exec_work else 0.0 in
  let peak_rows =
    match List.assoc_opt "exec.peak_rows" (Metrics.snapshot ()).Metrics.stats with
    | Some s -> s.Metrics.max
    | None -> 0.0
  in
  let hits = counter "cache.hits" and misses = counter "cache.misses" in
  [
    m "setup.gen_s" "s" gen_s;
    m "setup.analyze_s" "s" analyze_s;
    m "prepare.ms" "ms" (span "session.prepare");
    m "plan.ms" "ms" (span "session.plan" -. timer "probe_plan");
    m "plan.dp_pairs" "count"
      (counter "plan.dp_pairs" -. (Layers.counted layers "probe.dp_pairs" /. per));
    m "oracle.ensure_ms" "ms" (timer "ensure");
    m "oracle.cards" "count" (Layers.counted layers "oracle.cards" /. per);
    m "oracle.trigger_ms" "ms" (timer "trigger");
    m "exec.ms" "ms" (exec_ms /. per);
    m "exec.work_mu" "Mwork" (exec_work /. per /. 1e6);
    m "exec.ns_per_unit" "ns" (ratio (exec_ms *. 1e6) exec_work);
    m "exec.minor_words_per_unit" "words" (ratio exec_minor direct);
    m "exec.promoted_words_per_unit" "words" (ratio exec_promoted direct);
    m "exec.peak_rows" "rows" peak_rows;
    m "reopt.ms" "ms" (timer "reopt");
    m "reopt.materialize_ms" "ms" (span "reopt.materialize");
    m "reopt.analyze_ms" "ms" (span "reopt.analyze");
    m "reopt.replan_ms" "ms" (span "reopt.replan");
    m "reopt.execute_ms" "ms" (span "reopt.execute");
    m "reopt.unattributed_ms" "ms" (self "bench.reopt");
    m "reopt.steps" "count" (counter "reopt.steps");
    m "reopt.temp_rows" "rows" (counter "reopt.temp_rows");
    m "serve.parse_bind_ms" "ms" (timer "parse_bind");
    m "serve.fingerprint_ms" "ms" (timer "fingerprint");
    m "cache.hit_ratio" "ratio" (ratio hits (hits +. misses));
    m "cache.hits" "count" hits;
    m "cache.misses" "count" misses;
    m "cache.invalidations" "count" (counter "cache.invalidations");
    m "cache.writebacks" "count" (counter "cache.writebacks");
    m "serve.worker_ms" "ms" (span "serve.request");
    m "serve.queue_ms" "ms"
      (if client_ms = 0.0 then 0.0 else (client_ms /. per) -. span "serve.request");
    m "serve.unattributed_ms" "ms" (self "serve.request");
    m "certify.ms" "ms" (span "session.certify");
    m "gc.minor_words_mu" "Mwords"
      (Layers.counted layers "gc.minor_words" /. per /. 1e6);
    m "gc.major_collections" "count"
      (Layers.counted layers "gc.major_collections" /. per);
    m "query.unattributed_ms" "ms" (self "bench.query");
    m "trace.overhead_pct" "%" overhead_pct;
  ]

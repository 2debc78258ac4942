(* The three JOB workloads: every one of the 113 queries, prepared afresh,
   planned and executed on one domain, pass after pass, each pass in its
   own seeded order. *)

module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Query = Rdb_query.Query
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Executor = Rdb_exec.Executor
module Prng = Rdb_util.Prng

type kind =
  | Default  (** default estimates *)
  | Reopt  (** re-optimization at the paper's threshold *)
  | Perfect  (** every cardinality true *)

(* The paper's Q-error threshold. *)
let threshold = 32.0

type outcome = { rows : int; aggs : Value.t list; work : int }

let of_exec (r : Executor.result) =
  { rows = r.Executor.out_rows; aggs = r.Executor.aggs; work = r.Executor.work }

let temp_tables catalog =
  List.exists
    (fun tbl -> String.starts_with ~prefix:"temp_" (Table.name tbl))
    (Catalog.tables catalog)

(* One query, start to finish. In a traced pass the re-opt workload also
   plans the query and runs the trigger search itself before [Reopt.run]:
   the oracle work of the initial trigger search is then timed on its own,
   and [Reopt.run] finds those cardinalities already computed. *)
let run_query layers kind (db : Setup.db) (q : Query.t) =
  let call name f = Layers.call layers name f in
  let p = call "prepare" (fun () -> Session.prepare db.Setup.session q) in
  match kind with
  | Default ->
    let plan, _, _ = call "plan" (fun () -> Session.plan p ~mode:Estimator.Default) in
    of_exec
      (call "execute" (fun () ->
           Session.execute ~work_budget:Setup.work_budget p plan))
  | Reopt ->
    let trigger = Trigger.create threshold in
    if Layers.on layers then begin
      let plan, stats, _ =
        call "probe_plan" (fun () -> Session.plan p ~mode:Estimator.Default)
      in
      Layers.count layers "probe.dp_pairs"
        (float_of_int stats.Rdb_plan.Optimizer.pairs_considered);
      ignore (call "trigger" (fun () -> Reopt.find_trigger p plan trigger))
    end;
    let o =
      call "reopt" (fun () ->
          Reopt.run ~work_budget:Setup.work_budget ~initial:p db.Setup.session
            ~trigger ~mode:Estimator.Default q)
    in
    if Layers.on layers then
      Layers.count layers "oracle.cards"
        (float_of_int (fst (Oracle.stats (Session.oracle p))));
    if temp_tables db.Setup.catalog then
      Setup.violation (q.Query.name ^ " left a temp_* table in the catalog");
    { (of_exec o.Reopt.final_exec) with work = o.Reopt.total_work }
  | Perfect ->
    let oracle = Session.oracle p in
    call "ensure" (fun () -> Oracle.ensure_up_to oracle (Query.n_rels q));
    if Layers.on layers then
      Layers.count layers "oracle.cards" (float_of_int (fst (Oracle.stats oracle)));
    let plan, _, _ =
      call "plan" (fun () -> Session.plan p ~mode:Estimator.Perfect_all)
    in
    of_exec
      (call "execute" (fun () ->
           Session.execute ~work_budget:Setup.work_budget p plan))

type pass = {
  wall_s : float;
  latency_s : float array;  (* by workload position *)
  work : int;  (* executor work of the queries that did not fail *)
  attempted : int;
  failed : int;
  traced : bool;
}

let run_pass layers kind db key queries ~seed ~index =
  let n = Array.length queries in
  let order = Array.init n Fun.id in
  Prng.shuffle (Prng.create ((seed * 7919) + index)) order;
  let latency_s = Array.make n 0.0 in
  let work = ref 0 and failed = ref 0 in
  let t0 = Clock.now () in
  Array.iter
    (fun i ->
      let q = queries.(i) in
      let name = q.Query.name in
      let result, dt =
        Clock.time (fun () ->
            match Layers.call layers "query" (fun () -> run_query layers kind db q) with
            | o -> Ok o
            | exception Executor.Work_budget_exceeded _ -> Error "hit the work budget")
      in
      latency_s.(i) <- dt;
      match result with
      | Ok o when Setup.agrees key name ~rows:o.rows ~aggs:o.aggs ->
        work := !work + o.work
      | Ok _ -> Setup.failed name "returned a wrong answer"; incr failed
      | Error msg -> Setup.failed name msg; incr failed)
    order;
  { wall_s = Clock.now () -. t0; latency_s; work = !work; attempted = n;
    failed = !failed; traced = Layers.on layers }

(* ---- a run ---- *)

let run kind ~seed ~seconds ~trace =
  let db, gen_s, analyze_s, setup_s = Setup.repeated () in
  let key = Setup.load_key () in
  let queries = Array.of_list (Rdb_imdb.Job_queries.all db.Setup.catalog) in
  let layers = Layers.create () in
  Gc.full_major ();
  let t0 = Clock.now () in
  (* At least two whole passes, then another while it is expected to end
     within the time. A traced run alternates untraced and traced passes. *)
  let rec loop index acc =
    let run () = run_pass layers kind db key queries ~seed ~index in
    let pass = if trace && index mod 2 = 1 then Layers.traced layers run else run () in
    Printf.eprintf "pass %d: %.3f s\n%!" index pass.wall_s;
    let acc = pass :: acc in
    if Clock.fits ~start:t0 ~seconds ~done_:(index + 1) || index < 1 then
      loop (index + 1) acc
    else List.rev acc
  in
  let passes = loop 0 [] in
  let attempted = List.fold_left (fun a (p : pass) -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a (p : pass) -> a + p.failed) 0 passes in
  let works = List.sort_uniq compare (List.map (fun (p : pass) -> p.work) passes) in
  if List.length works <> 1 && failed = 0 then
    Setup.violation "executor work differs between passes of one run";
  let walls traced =
    Array.of_list
      (List.filter_map
         (fun (p : pass) -> if p.traced = traced then Some p.wall_s else None)
         passes)
  in
  let metrics =
    if not trace then begin
      let per_query =
        Array.mapi
          (fun i _ ->
            Clock.median
              (Array.of_list (List.map (fun (p : pass) -> p.latency_s.(i)) passes)))
          queries
      in
      let position name =
        let rec find i =
          if i >= Array.length queries then
            failwith ("top-20 query " ^ name ^ " missing")
          else if queries.(i).Rdb_query.Query.name = name then i
          else find (i + 1)
        in
        find 0
      in
      let wall_s = Clock.median (walls false) in
      (* Latency percentiles pool every execution of the run: the median
         of a few passes per query left p50 twice as unsteady. *)
      let pooled = Array.concat (List.map (fun (p : pass) -> p.latency_s) passes) in
      let ms p = 1000.0 *. Clock.percentile pooled p in
      let m = Report.m in
      [
        m "setup_s" "s" setup_s;
        m "wall_s" "s" wall_s;
        m "throughput_qps" "1/s" (float_of_int (Array.length queries) /. wall_s);
        m "latency_ms.p50" "ms" (ms 0.50);
        m "latency_ms.p90" "ms" (ms 0.90);
        m "latency_ms.p99" "ms" (ms 0.99);
        m "top20_s" "s"
          (List.fold_left (fun a n -> a +. per_query.(position n)) 0.0 Setup.top20);
        m "work_mu" "Mwork" (float_of_int (List.hd works) /. 1e6);
        m "peak_rss_mb" "MB" (Clock.peak_rss_mb ());
      ]
    end
    else begin
      let totals = Layers.fold () in
      let traced_walls = walls true in
      let per = float_of_int (Array.length traced_walls) in
      let probe_ms, _, _ = Layers.timer layers "probe_plan" in
      let untraced = Clock.median (walls false) in
      let traced_s = Clock.median traced_walls -. (probe_ms /. per /. 1000.0) in
      Printf.eprintf "per traced pass (%g passes):\n" per;
      Layers.print_table totals ~per;
      Report.per_layer layers totals ~per ~gen_s ~analyze_s
        ~exec_ms:
          (Layers.span_ms totals "session.execute"
          +. Layers.span_ms totals "reopt.materialize")
        ~client_ms:0.0 ~overhead_pct:(100.0 *. ((traced_s /. untraced) -. 1.0))
    end
  in
  (metrics, attempted, failed)

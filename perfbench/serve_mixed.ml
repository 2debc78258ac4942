(* The serve-mixed workload: a [Service] with two worker domains and
   re-optimization at the paper's threshold, its plan cache warmed during
   set-up, driven by two closed-loop clients that send JOB SQL text.

   The clients share one seeded request stream, handed out one request at
   a time. A round is 226 requests: two seeded permutations of the 113
   queries, each request the query's original text or, with probability
   1/2, an alias-renamed variant the plan cache must recognise as the same
   query. Each round starts by touching one table of [touched] in turn:
   every cached plan over that table turns stale, and since every query
   comes twice per round, each of those queries misses the cache once per
   round and goes through re-planning, re-optimization, certification and
   write-back. A phase serves whole rounds, as many as fit in its time. *)

module Service = Rdb_server.Service
module Cqnf = Rdb_verify.Cqnf
module Metrics = Rdb_obs.Metrics
module Prng = Rdb_util.Prng

(* Two closed-loop clients, never more client domains than cores. *)
let clients = Int.min 2 (Domain.recommended_domain_count ())
let jobs = 2

(* Read by 39 of the 113 queries, so every round misses on 39 of its 226
   requests (17%). *)
let touched = [| "char_name" |]

type client_log = {
  mutable latencies : (int * float) list;  (* source query, seconds *)
  mutable exec_ms : float;
  mutable requests : int;
  mutable failed : int;
}

let new_log () = { latencies = []; exec_ms = 0.0; requests = 0; failed = 0 }

let bind catalog ~name sql =
  Rdb_sql.Binder.bind catalog ~name (Rdb_sql.Parser.parse sql)

let fingerprint catalog q = Cqnf.fingerprint (Cqnf.of_query ~catalog q)

(* The original SQL of every query and an alias-renamed variant, checked
   to bind to the same canonical form. *)
let texts catalog =
  Array.of_list
    (List.map
       (fun (name, sql) ->
         match bind catalog ~name sql with
         | Error msg -> failwith (name ^ ": " ^ msg)
         | Ok q ->
           let variant =
             Rdb_sql.Unparse.query catalog (Rdb_verify.Query_gen.rename_aliases q)
           in
           (match bind catalog ~name variant with
            | Ok v when fingerprint catalog v = fingerprint catalog q -> ()
            | Ok _ | Error _ ->
              Setup.violation (name ^ ": alias-renamed variant is not the same query"));
           (name, sql, variant))
       Rdb_imdb.Job_queries.sql)

let check key names log source = function
  | Ok (r : Service.response) ->
    log.exec_ms <- log.exec_ms +. r.Service.r_exec_ms;
    if
      not
        (Setup.agrees key names.(source) ~rows:r.Service.r_rows
           ~aggs:r.Service.r_aggs)
    then begin
      Setup.failed names.(source) "was served a wrong answer";
      log.failed <- log.failed + 1
    end
  | Error msg ->
    Setup.failed names.(source) ("failed: " ^ msg);
    log.failed <- log.failed + 1

(* The shared request stream. [next] hands out the next request, touching
   a table first at the start of a round, or [None] at the end of a round
   when another would not end within the time. *)
type stream = {
  mu : Mutex.t;
  seed : int;
  start : float;
  seconds : float;
  mutable served : int;
  mutable block : int * int array * bool array;
      (* permutation index, order, variant choices *)
}

let permutation seed n b =
  let prng = Prng.create ((seed * 7919) + (104729 * b) + 1) in
  let order = Array.init n Fun.id in
  Prng.shuffle prng order;
  (b, order, Array.init n (fun _ -> Prng.bool prng))

let next service stream n =
  Mutex.protect stream.mu (fun () ->
      let k = stream.served in
      let round = 2 * n in
      if k mod round = 0 && k > 0
         && not
              (Clock.fits ~start:stream.start ~seconds:stream.seconds
                 ~done_:(k / round))
      then None
      else begin
        if k mod round = 0 then
          Service.touch_table service touched.(k / round mod Array.length touched);
        let b = k / n in
        let cur, _, _ = stream.block in
        if cur <> b then stream.block <- permutation stream.seed n b;
        let _, order, variants = stream.block in
        stream.served <- k + 1;
        Some (order.(k mod n), variants.(k mod n))
      end)

(* One closed-loop client. In a traced phase the client also parses, binds
   and fingerprints each text itself before sending it, timing those layers
   outside the request's latency. *)
let client layers service key texts stream ~probe_catalog =
  let names = Array.map (fun (n, _, _) -> n) texts in
  let log = new_log () in
  let rec loop () =
    match next service stream (Array.length texts) with
    | None -> log
    | Some (source, variant) ->
      let name, sql, renamed = texts.(source) in
      let sql = if variant then renamed else sql in
      if Layers.on layers then begin
        match
          Layers.call layers "parse_bind" (fun () -> bind probe_catalog ~name sql)
        with
        | Ok q ->
          ignore
            (Layers.call layers "fingerprint" (fun () ->
                 fingerprint probe_catalog q))
        | Error _ -> ()
      end;
      let res, dt = Clock.time (fun () -> Service.query service sql) in
      log.latencies <- (source, dt) :: log.latencies;
      log.requests <- log.requests + 1;
      check key names log source res;
      loop ()
  in
  loop ()

type phase = {
  logs : client_log list;
  wall_s : float;
  before : Metrics.snapshot;
  after : Metrics.snapshot;
}

let phase layers service key texts db ~seed ~seconds ~index =
  let before = Metrics.snapshot () in
  let t0 = Clock.now () in
  let n = Array.length texts in
  let stream =
    { mu = Mutex.create (); seed = seed + (1_000_003 * index); start = t0; seconds;
      served = 0; block = permutation (seed + (1_000_003 * index)) n 0 }
  in
  let logs =
    List.map Domain.join
      (List.init clients (fun _ ->
           let probe_catalog = Catalog.copy db.Setup.catalog in
           Domain.spawn (fun () ->
               client layers service key texts stream ~probe_catalog)))
  in
  let wall_s = Clock.now () -. t0 in
  { logs; wall_s; before; after = Metrics.snapshot () }

let delta p name = Metrics.counter p.after name - Metrics.counter p.before name
let sum f p = List.fold_left (fun a l -> a + f l) 0 p.logs
let requests = sum (fun l -> l.requests)
let rounds p =
  float_of_int (requests p)
  /. float_of_int (2 * List.length Rdb_imdb.Job_queries.sql)
let latencies p = List.concat_map (fun l -> l.latencies) p.logs

(* Every request reaches the cache decision exactly once. *)
let check_cache_accounting what p =
  let hits = delta p "cache.hits" and misses = delta p "cache.misses" in
  let reqs = delta p "serve.requests" in
  if hits + misses <> reqs then
    Setup.violation
      (Printf.sprintf "%s: cache.hits %d + cache.misses %d <> serve.requests %d" what
         hits misses reqs)

let run ~seed ~seconds ~trace =
  let db, gen_s, analyze_s, db_s = Setup.repeated () in
  let key = Setup.load_key () in
  let texts = texts db.Setup.catalog in
  let names = Array.map (fun (n, _, _) -> n) texts in
  let layers = Layers.create () in
  Gc.full_major ();
  (* Set-up continues: create the service and warm its cache with every
     query once, all in flight together. *)
  let warm_before = Metrics.snapshot () in
  let service, warm_s =
    Clock.time (fun () ->
        let service =
          Service.create
            ~config:
              { Service.default_config with
                Service.jobs;
                reopt = Some Job.threshold }
            db.Setup.session
        in
        let warm_log = new_log () in
        Array.map (fun (_, sql, _) -> Service.submit service sql) texts
        |> Array.iteri (fun i fut ->
               check key names warm_log i (Rdb_util.Pool.await fut));
        if warm_log.failed > 0 then failwith "the warm pass failed";
        service)
  in
  check_cache_accounting "warm pass"
    { logs = []; wall_s = 0.0; before = warm_before; after = Metrics.snapshot () };
  let run_phase ~index ~seconds =
    phase layers service key texts db ~seed ~seconds ~index
  in
  let phases =
    if not trace then [ run_phase ~index:0 ~seconds ]
    else
      [ run_phase ~index:0 ~seconds:(seconds /. 2.0);
        Layers.traced layers (fun () -> run_phase ~index:1 ~seconds:(seconds /. 2.0)) ]
  in
  Service.shutdown service;
  List.iter (check_cache_accounting "measured phase") phases;
  let attempted = List.fold_left (fun a p -> a + requests p) 0 phases in
  let failed = List.fold_left (fun a p -> a + sum (fun l -> l.failed) p) 0 phases in
  let m = Report.m in
  let metrics =
    match phases with
    | [ p ] ->
      let lat = latencies p in
      let ms = Array.of_list (List.map (fun (_, s) -> s *. 1000.0) lat) in
      let per_query = Array.make (Array.length texts) [] in
      List.iter (fun (i, s) -> per_query.(i) <- s :: per_query.(i)) lat;
      (* A query that reads the touched table misses on exactly one of its
         two requests per round, so its latencies split evenly between two
         modes and their median flips between them: sum per-query means. *)
      let top20_s =
        List.fold_left
          (fun a name ->
            let rec find i = if names.(i) = name then i else find (i + 1) in
            match per_query.(find 0) with
            | [] -> failwith ("no request for top-20 query " ^ name)
            | l -> a +. (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)))
          0.0 Setup.top20
      in
      let rounds = rounds p in
      Printf.eprintf
        "serve-mixed: %d requests in %.3f s, %g rounds, hits %d misses %d\n"
        (requests p) p.wall_s rounds (delta p "cache.hits") (delta p "cache.misses");
      [
        m "setup_s" "s" (db_s +. warm_s);
        m "wall_s" "s" (p.wall_s /. rounds);
        m "throughput_qps" "1/s" (float_of_int (requests p) /. p.wall_s);
        m "latency_ms.p50" "ms" (Clock.percentile ms 0.50);
        m "latency_ms.p90" "ms" (Clock.percentile ms 0.90);
        m "latency_ms.p99" "ms" (Clock.percentile ms 0.99);
        m "top20_s" "s" top20_s;
        m "work_mu" "Mwork" (float_of_int (delta p "exec.work") /. rounds /. 1e6);
        m "peak_rss_mb" "MB" (Clock.peak_rss_mb ());
      ]
    | [ untraced; traced ] ->
      let totals = Layers.fold () in
      let per = rounds traced in
      let mean p =
        let l = latencies p in
        List.fold_left (fun a (_, s) -> a +. s) 0.0 l /. float_of_int (List.length l)
      in
      let client_ms =
        1000.0 *. List.fold_left (fun a (_, s) -> a +. s) 0.0 (latencies traced)
      in
      Printf.eprintf "per traced round (%g rounds of %d requests):\n" per
        (clients * Array.length texts);
      Layers.print_table totals ~per;
      Report.per_layer layers totals ~per ~gen_s ~analyze_s
        ~exec_ms:(List.fold_left (fun a l -> a +. l.exec_ms) 0.0 traced.logs)
        ~client_ms
        ~overhead_pct:(100.0 *. ((mean traced /. mean untraced) -. 1.0))
    | _ -> assert false
  in
  (metrics, attempted, failed)

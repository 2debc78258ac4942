(* The database every workload runs against, its answer key and the fixed
   top-20 list. The data seed and scale are fixed: [--seed] varies only the
   workload (query order, request stream), so the answer key and the top-20
   list computed once for this database hold for every run. *)

module Session = Rdb_core.Session
module Query = Rdb_query.Query
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor

let scale = 0.05
let data_seed = 42

(* Deterministic cap on executor work: no JOB plan at this scale comes
   near it, so a query that reaches it is counted as failed. Wall-clock
   deadlines are never used, so the clock cannot change an outcome. *)
let work_budget = 200_000_000

let key_path = "perfbench/answer_key.txt"

(* The 20 queries with the most executor work under default planning at
   this scale and data seed, heaviest first: the output of
   [perfbench.exe top20], recorded in README.md. *)
let top20 =
  [ "29c"; "23d"; "26c"; "33c"; "19d"; "33b"; "29a"; "27b"; "24a"; "16d";
    "30a"; "22a"; "24d"; "12a"; "28b"; "30d"; "17a"; "17e"; "26b"; "12b" ]

type db = {
  catalog : Catalog.t;
  session : Session.t;
  gen_s : float;
  analyze_s : float;
}

let build () =
  let catalog, gen_s =
    Clock.time (fun () -> Rdb_imdb.Imdb_gen.generate ~seed:data_seed ~scale ())
  in
  let session, analyze_s =
    Clock.time (fun () ->
        let s = Session.create catalog in
        Session.analyze s;
        s)
  in
  { catalog; session; gen_s; analyze_s }

(* One set-up takes well under a second at this scale, too short to time
   once: build the database [reps] times, each from a collected heap that
   holds no earlier copy, and keep the medians. The last database built is
   the one the workload uses. *)
let reps = 9

let repeated () =
  let timed () =
    Gc.full_major ();
    build ()
  in
  let earlier =
    List.init (reps - 1) (fun _ ->
        let db = timed () in
        (db.gen_s, db.analyze_s))
  in
  let db = timed () in
  let times = (db.gen_s, db.analyze_s) :: earlier in
  let med f = Clock.median (Array.of_list (List.map f times)) in
  (db, med fst, med snd, med (fun (g, a) -> g +. a))

(* ---- checks ---- *)

(* A broken property makes the whole run incorrect; a failed operation is
   counted against the attempted ones. *)
let violations = Atomic.make 0

let violation msg =
  Atomic.incr violations;
  Printf.eprintf "perfbench: property violated: %s\n%!" msg

let failed name msg = Printf.eprintf "perfbench: %s %s\n%!" name msg

(* ---- answer key ---- *)

type answer = { rows : int; aggs : Value.t list }

let encode_value = function
  | Value.Null -> "N"
  | Value.Int i -> "I" ^ string_of_int i
  | Value.Str s -> "S" ^ s

let decode_value s =
  match s.[0] with
  | 'N' -> Value.Null
  | 'I' -> Value.Int (int_of_string (String.sub s 1 (String.length s - 1)))
  | 'S' -> Value.Str (String.sub s 1 (String.length s - 1))
  | _ -> failwith ("answer key: bad value " ^ s)

let header =
  Printf.sprintf "# perfbench answer key: scale=%g data_seed=%d" scale data_seed

(* One line per query: name, row count, then each aggregate, every field
   OCaml-quoted. *)
let write_key catalog oc =
  output_string oc (header ^ "\n");
  List.iter
    (fun (q : Query.t) ->
      let r = Rdb_exec.Naive.run ~catalog q in
      Printf.fprintf oc "%S %d" q.Query.name r.Rdb_exec.Naive.out_rows;
      List.iter (fun v -> Printf.fprintf oc " %S" (encode_value v))
        r.Rdb_exec.Naive.aggs;
      output_char oc '\n')
    (Rdb_imdb.Job_queries.all catalog)

let load_key () =
  let ic = open_in key_path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      if input_line ic <> header then
        failwith (key_path ^ " was made for another scale or data seed");
      let key = Hashtbl.create 128 in
      (try
         while true do
           let line = input_line ic in
           let ib = Scanf.Scanning.from_string line in
           let name, rows = Scanf.bscanf ib "%S %d" (fun n r -> (n, r)) in
           let rec aggs acc =
             if Scanf.Scanning.end_of_input ib then List.rev acc
             else aggs (decode_value (Scanf.bscanf ib " %S" Fun.id) :: acc)
           in
           Hashtbl.replace key name { rows; aggs = aggs [] }
         done
       with End_of_file -> ());
      key)

let agrees key name ~rows ~aggs =
  match Hashtbl.find_opt key name with
  | None -> false
  | Some a -> a.rows = rows && List.equal Value.equal a.aggs aggs

(* ---- the top-20 list ---- *)

(* Executor work of every query's default plan, heaviest first. *)
let default_work db =
  Rdb_imdb.Job_queries.all db.catalog
  |> List.map (fun (q : Query.t) ->
         let p = Session.prepare db.session q in
         let plan, _, _ = Session.plan p ~mode:Estimator.Default in
         let r = Session.execute ~work_budget p plan in
         (q.Query.name, r.Executor.work))
  |> List.stable_sort (fun (_, a) (_, b) -> Int.compare b a)

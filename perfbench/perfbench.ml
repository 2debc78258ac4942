(* The end-to-end benchmark. See README.md for the workloads, the metrics
   and how each layer metric relates to the end-to-end ones.

   Usage (from the repository root):
     dune exec ./perfbench/perfbench.exe -- \
       --workload job-default --seed 1 --seconds 20 --trace 0
     dune exec ./perfbench/perfbench.exe -- key > perfbench/answer_key.txt
     dune exec ./perfbench/perfbench.exe -- top20

   A run prints its figures to stderr and, as its last line on stdout, one
   JSON object: {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] the
   run is traced and the metrics are the per-layer ones. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe [run] --workload job-default|job-reopt|job-perfect|serve-mixed\n\
    \                         --seed N --seconds S --trace 0|1\n\
    \       perfbench.exe key     write the brute-force answer key to stdout\n\
    \       perfbench.exe top20   list the queries with the most default-plan work";
  exit 2

let run_workload workload ~seed ~seconds ~trace =
  Rdb_obs.Trace.set_sink Rdb_obs.Trace.Null;
  let metrics, attempted, failed =
    match workload with
    | "job-default" -> Job.run Job.Default ~seed ~seconds ~trace
    | "job-reopt" -> Job.run Job.Reopt ~seed ~seconds ~trace
    | "job-perfect" -> Job.run Job.Perfect ~seed ~seconds ~trace
    | "serve-mixed" -> Serve_mixed.run ~seed ~seconds ~trace
    | w ->
      Printf.eprintf "perfbench: unknown workload %s\n" w;
      usage ()
  in
  Report.print ~correct:(Atomic.get Setup.violations = 0) ~attempted ~failed metrics

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "key" ] ->
    let db = Setup.build () in
    Setup.write_key db.Setup.catalog stdout
  | [ "top20" ] ->
    let db = Setup.build () in
    List.iteri
      (fun i (name, work) ->
        if i < 20 then Printf.printf "%2d %-4s %d\n" (i + 1) name work)
      (Setup.default_work db)
  | args ->
    let args = match args with "run" :: rest -> rest | _ -> args in
    let workload = ref None and seed = ref None in
    let seconds = ref None and trace = ref None in
    let rec parse = function
      | [] -> ()
      | flag :: v :: rest ->
        let set r conv =
          match conv v with
          | Some x -> r := Some x
          | None ->
            Printf.eprintf "perfbench: bad value %s for %s\n" v flag;
            usage ()
        in
        (match flag with
         | "--workload" -> set workload Option.some
         | "--seed" -> set seed int_of_string_opt
         | "--seconds" -> set seconds float_of_string_opt
         | "--trace" ->
           set trace (function "0" -> Some false | "1" -> Some true | _ -> None)
         | _ -> usage ());
        parse rest
      | [ _ ] -> usage ()
    in
    parse args;
    (match (!workload, !seed, !seconds, !trace) with
     | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
       run_workload workload ~seed ~seconds ~trace
     | _ -> usage ())

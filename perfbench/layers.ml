(* Per-layer measurement for the traced run. The benchmark times its own
   calls into each layer's public functions (wall time and GC deltas, each
   call wrapped in a [bench.*] span), snapshots the program's counters, and
   collects the spans the program already emits through a JSON-lines sink.
   After the run the spans are folded into self time: a span's self time
   is its duration minus that of its direct children, so the self time of a
   parent is its unattributed remainder. *)

module Trace = Rdb_obs.Trace
module Metrics = Rdb_obs.Metrics
module Json = Rdb_obs.Json

type acc = { mutable ms : float; mutable minor : float; mutable promoted : float }

type t = {
  on : bool Atomic.t;  (* inside a traced pass *)
  mu : Mutex.t;  (* guards both tables *)
  timers : (string, acc) Hashtbl.t;
  counts : (string, float) Hashtbl.t;
}

let create () =
  { on = Atomic.make false; mu = Mutex.create (); timers = Hashtbl.create 16;
    counts = Hashtbl.create 16 }

let on t = Atomic.get t.on

let acc_of t name =
  match Hashtbl.find_opt t.timers name with
  | Some a -> a
  | None ->
    let a = { ms = 0.0; minor = 0.0; promoted = 0.0 } in
    Hashtbl.replace t.timers name a;
    a

(* [call t name f] runs [f]; in a traced pass it also records the call's
   wall time and allocation under [name] and wraps it in a [bench.name]
   span. GC deltas are only meaningful on a single domain. *)
let call t name f =
  if not (on t) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    let v = Trace.span ("bench." ^ name) f in
    let dt = (Clock.now () -. t0) *. 1000.0 in
    let g1 = Gc.quick_stat () in
    Mutex.protect t.mu (fun () ->
        let a = acc_of t name in
        a.ms <- a.ms +. dt;
        a.minor <- a.minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        a.promoted <- a.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words));
    v
  end

let count t name v =
  Mutex.protect t.mu (fun () ->
      Hashtbl.replace t.counts name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counts name)))

let timer t name =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.timers name with
      | Some a -> (a.ms, a.minor, a.promoted)
      | None -> (0.0, 0.0, 0.0))

let counted t name =
  Mutex.protect t.mu (fun () ->
      Option.value ~default:0.0 (Hashtbl.find_opt t.counts name))

(* ---- counters ---- *)

(* Counter deltas and GC deltas, summed over every traced stretch. *)
let window t f =
  let before = Metrics.snapshot () and g0 = Gc.quick_stat () in
  let v = f () in
  let after = Metrics.snapshot () and g1 = Gc.quick_stat () in
  List.iter
    (fun (k, d) -> count t ("counter." ^ k) (float_of_int d))
    (Metrics.diff_counters ~after ~before);
  count t "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  count t "gc.major_collections"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  v

let counter t name = counted t ("counter." ^ name)

(* ---- the span sink ---- *)

let trace_dir = ".perfbench"
let trace_path =
  Filename.concat trace_dir (Printf.sprintf "trace-%d.jsonl" (Unix.getpid ()))

(* A traced stretch: spans go to the trace file, timed calls and counters
   are recorded, for the duration of [f]. *)
let traced t f =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 trace_path in
  Trace.set_sink (Trace.Jsonl oc);
  Atomic.set t.on true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.on false;
      Trace.set_sink Trace.Null)
    (fun () -> window t f)

type span_total = { mutable n : int; mutable total : float; mutable self : float }

(* Fold the trace file into per-name totals. Spans are written when they
   end, so on each domain a parent arrives after all of its children: the
   durations waiting at depth d+1 when a span of depth d arrives are its
   direct children. *)
let fold () =
  let totals : (string, span_total) Hashtbl.t = Hashtbl.create 32 in
  let waiting : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  if Sys.file_exists trace_path then begin
    let ic = open_in trace_path in
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove trace_path;
        try Sys.rmdir trace_dir with Sys_error _ -> ())
      (fun () ->
        try
          while true do
            match Json.parse_opt (input_line ic) with
            | Some (Json.Obj fields)
              when List.assoc_opt "kind" fields = Some (Json.Str "span") ->
              let num k =
                match List.assoc_opt k fields with
                | Some (Json.Int i) -> float_of_int i
                | Some (Json.Float f) -> f
                | _ -> failwith ("trace record without " ^ k)
              in
              let name =
                match List.assoc_opt "name" fields with
                | Some (Json.Str s) -> s
                | _ -> failwith "trace record without a name"
              in
              let domain = int_of_float (num "domain")
              and depth = int_of_float (num "depth")
              and dur = num "dur_ms" in
              let children =
                Option.value ~default:0.0 (Hashtbl.find_opt waiting (domain, depth + 1))
              in
              Hashtbl.remove waiting (domain, depth + 1);
              Hashtbl.replace waiting (domain, depth)
                (dur
                +. Option.value ~default:0.0
                     (Hashtbl.find_opt waiting (domain, depth)));
              let s =
                match Hashtbl.find_opt totals name with
                | Some s -> s
                | None ->
                  let s = { n = 0; total = 0.0; self = 0.0 } in
                  Hashtbl.replace totals name s;
                  s
              in
              s.n <- s.n + 1;
              s.total <- s.total +. dur;
              s.self <- s.self +. (dur -. children)
            | Some _ -> ()
            | None -> failwith "unreadable trace record"
          done
        with End_of_file -> ())
  end;
  totals

let span_ms totals name =
  match Hashtbl.find_opt totals name with Some s -> s.total | None -> 0.0

let self_ms totals name =
  match Hashtbl.find_opt totals name with Some s -> s.self | None -> 0.0

(* The folded spans as a table on stderr, per unit of work ([per] passes or
   rounds); a parent's self column is its unattributed remainder. *)
let print_table totals ~per =
  let rows =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])
  in
  Printf.eprintf "%-22s %10s %12s %12s\n" "span" "calls" "total_ms" "self_ms";
  List.iter
    (fun (name, s) ->
      Printf.eprintf "%-22s %10.1f %12.3f %12.3f\n" name
        (float_of_int s.n /. per) (s.total /. per) (s.self /. per))
    rows

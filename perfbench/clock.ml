(* Timing and summary helpers shared by every workload. *)

let now () = Unix.gettimeofday ()

(* [time f] is [f ()] with its wall time in seconds. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Whether one more unit of work, expected to take as long as the mean of
   the [done_] units since [start], still ends within [seconds]. *)
let fits ~start ~seconds ~done_ =
  let elapsed = now () -. start in
  elapsed +. (elapsed /. float_of_int done_) <= seconds

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. *)
let percentile a p =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then invalid_arg "Clock.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  a.(Int.max 0 (Int.min (n - 1) (rank - 1)))

let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then invalid_arg "Clock.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The process's peak resident set, from the kernel's high-water mark. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* What one workload session records: op latencies, failures, the time
   the client spent waiting on the system, and deterministic counts. *)

(* [generated]: the op ran a generated program, not a bundled one. *)
type sample = { cls : string; ns : int; traced : bool; generated : bool }

type t = {
  mutable samples : sample list;  (* ops that passed their checks *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
  mutable busy_ns : int;  (* wall time inside the measured calls *)
  mutable sweep_rates : float list;  (* ops per busy second, measured untraced sweeps *)
  mutable measuring : bool;  (* false during set-up and warm-up *)
  mutable traced : bool;  (* the current sweep runs under spans *)
  tally : (string, float) Hashtbl.t;  (* counts of the current sweep *)
  inexact : (string, unit) Hashtbl.t;  (* counts that depend on scheduling *)
  mutable counts : (string * float) list option;  (* first untraced sweep *)
  mutable traced_counts : (string * float) list option;  (* first traced sweep *)
}

let create () =
  {
    samples = [];
    attempted = 0;
    failed = 0;
    failures = [];
    busy_ns = 0;
    sweep_rates = [];
    measuring = false;
    traced = false;
    tally = Hashtbl.create 32;
    inexact = Hashtbl.create 8;
    counts = None;
    traced_counts = None;
  }

let fail r what msg =
  r.attempted <- r.attempted + 1;
  r.failed <- r.failed + 1;
  r.failures <- Printf.sprintf "%s: %s" what msg :: r.failures

let sample ?(generated = false) r ~cls ns =
  r.attempted <- r.attempted + 1;
  if r.measuring then
    r.samples <- { cls; ns; traced = r.traced; generated } :: r.samples

(* Time one call into the system under test, as a root span.  [busy]
   calls count towards the time the client waited on the system. *)
let timed ?(busy = true) r name call =
  let t0 = Measure.now_ns () in
  let v = Trace.span name call in
  let ns = Measure.now_ns () - t0 in
  if busy && r.measuring then r.busy_ns <- r.busy_ns + ns;
  (v, ns)

(* One op = one call: [call] is timed, [check] runs outside the timing.
   An exception or a failed check fails the op. *)
let op ?generated r ~cls ~call ~check =
  match timed r cls call with
  | exception e -> fail r cls (Printexc.to_string e)
  | v, ns -> (
    match check v with
    | Ok () -> sample ?generated r ~cls ns
    | Error msg -> fail r cls msg
    | exception e -> fail r cls (Printexc.to_string e))

(* A count of the current sweep, also attached to the innermost open
   span.  Counts are deterministic unless [exact] is false. *)
let count ?(exact = true) r key v =
  if not exact then Hashtbl.replace r.inexact key ();
  Hashtbl.replace r.tally key
    (v +. Option.value (Hashtbl.find_opt r.tally key) ~default:0.0);
  Trace.note key v

let sweep r ~traced run =
  r.traced <- traced;
  Hashtbl.reset r.tally;
  let busy0 = r.busy_ns and ops0 = List.length r.samples in
  Fun.protect
    ~finally:(fun () ->
      Trace.enabled := false;
      r.traced <- false)
    (fun () ->
      Trace.enabled := traced;
      run ());
  if r.measuring && (not traced) && r.busy_ns > busy0 then
    r.sweep_rates <-
      (float_of_int (List.length r.samples - ops0) /. (float_of_int (r.busy_ns - busy0) /. 1e9))
      :: r.sweep_rates;
  let snapshot =
    Some
      (List.sort compare
         (Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.tally []))
  in
  if traced then (if r.traced_counts = None then r.traced_counts <- snapshot)
  else if r.counts = None then r.counts <- snapshot

let samples r ~traced = List.filter (fun (s : sample) -> s.traced = traced) r.samples

let count_of counts key = Option.value (List.assoc_opt key counts) ~default:0.0

let count_metrics r counts =
  List.map
    (fun (k, v) ->
      Measure.metric ~exact:(not (Hashtbl.mem r.inexact k)) k "count" v)
    counts

(* A workload after set-up. *)
type session = {
  run_sweep : unit -> unit;  (* one sweep of ops into the recorder *)
  extras : unit -> Measure.metric list;  (* workload-only end-to-end metrics *)
  layers : unit -> Measure.metric list;  (* per-layer metrics of traced sweeps *)
  digest : unit -> string;  (* deterministic outputs of the first sweep *)
  teardown : unit -> unit;
}

(* Spans recorded around the benchmark's own calls into each layer.

   Every op is a root span carrying an op id; each layer call inside it
   is a child span.  Spans stay in memory and are written once, at exit,
   as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
   Recording is off unless [enabled] is set; on, [span] costs two clock
   reads and one record. *)

type span = {
  id : int;
  parent : int;        (* -1 for an op's root span *)
  op : int;            (* id of the enclosing root span *)
  name : string;
  track : int;         (* one track per workload *)
  t0 : int;
  t1 : int;
}

let enabled = ref false
let finished : span list ref = ref []
let next_id = ref 0
let stack : (int * int) list ref = ref []  (* open (span id, op id) *)
let track = ref 0
let track_names : (int * string) list ref = ref []
let notes : (int, (string * float) list) Hashtbl.t = Hashtbl.create 1024

let set_track k name =
  track := k;
  if not (List.mem_assoc k !track_names) then
    track_names := (k, name) :: !track_names

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, op =
      match !stack with [] -> (-1, id) | (p, op) :: _ -> (p, op)
    in
    stack := (id, op) :: !stack;
    let t0 = Measure.now_ns () in
    let close () =
      let t1 = Measure.now_ns () in
      stack := List.tl !stack;
      finished := { id; parent; op; name; track = !track; t0; t1 } :: !finished
    in
    Fun.protect ~finally:close f
  end

(* Attach a count to the innermost open span. *)
let note key v =
  match !stack with
  | (id, _) :: _ when !enabled ->
    let l = Option.value (Hashtbl.find_opt notes id) ~default:[] in
    let old = Option.value (List.assoc_opt key l) ~default:0.0 in
    Hashtbl.replace notes id ((key, old +. v) :: List.remove_assoc key l)
  | _ -> ()

let note_of s key =
  Option.value
    (Option.bind (Hashtbl.find_opt notes s.id) (List.assoc_opt key))
    ~default:0.0

let spans () = List.rev !finished

(* Self time of every span: its duration minus the part its children
   cover (children never overlap: the benchmark is one client). *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          ((s.t1 - s.t0)
          + Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0))
    spans;
  List.map
    (fun s ->
      (s, s.t1 - s.t0 - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0))
    spans

let on_track k = List.filter (fun (s, _) -> s.track = k) (self_times (spans ()))

(* Self nanoseconds per op of the layer spans named [name] on track [k],
   one value for each op that made such a call. *)
let per_op_self k name =
  let by_op = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      if s.parent >= 0 && s.name = name then
        Hashtbl.replace by_op s.op
          (self + Option.value (Hashtbl.find_opt by_op s.op) ~default:0))
    (on_track k);
  Hashtbl.fold (fun _ ns acc -> float_of_int ns :: acc) by_op []

let write path =
  let spans = spans () in
  let base = List.fold_left (fun m s -> min m s.t0) max_int spans in
  let us ns = Harness.Json.Jnum (float_of_int ns /. 1e3) in
  let num n = Harness.Json.Jnum (float_of_int n) in
  let event s =
    Harness.Json.Jobj
      [
        ("name", Harness.Json.Jstr s.name);
        ("cat", Harness.Json.Jstr (if s.parent < 0 then "op" else "layer"));
        ("ph", Harness.Json.Jstr "X");
        ("ts", us (s.t0 - base));
        ("dur", us (s.t1 - s.t0));
        ("pid", num 1);
        ("tid", num s.track);
        ( "args",
          Harness.Json.Jobj
            ([ ("id", num s.id); ("parent", num s.parent); ("op", num s.op) ]
            @ List.rev_map
                (fun (k, v) -> (k, Harness.Json.Jnum v))
                (Option.value (Hashtbl.find_opt notes s.id) ~default:[])) );
      ]
  in
  let thread_name (k, name) =
    Harness.Json.Jobj
      [
        ("name", Harness.Json.Jstr "thread_name");
        ("ph", Harness.Json.Jstr "M");
        ("pid", num 1);
        ("tid", num k);
        ("args", Harness.Json.Jobj [ ("name", Harness.Json.Jstr name) ]);
      ]
  in
  let doc =
    Harness.Json.Jobj
      [
        ( "traceEvents",
          Harness.Json.Jarr
            (List.map thread_name (List.rev !track_names) @ List.map event spans)
        );
        ("displayTimeUnit", Harness.Json.Jstr "ms");
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Measure.to_json doc);
      output_char oc '\n')

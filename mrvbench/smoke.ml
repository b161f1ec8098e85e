(* Checks the output of a --quick run (the runtest smoke):

     smoke.exe BENCHMARK.json E2E_OUTPUT LAYER_OUTPUT TRACE_JSON

   - every end-to-end metric of BENCHMARK.json is printed, with its unit,
     by each of the four untraced runs, and every per-layer metric by the
     traced run; each closing JSON line has exactly the keys correct,
     attempted, failed and metrics, and names exactly those metrics, each
     as {value, unit} in its unit with a positive value (a count may
     be 0);
   - every run reports "correct": true and no failed op (the traced
     compile ops among them check the staged digest against
     Pipeline.compile's);
   - the trace parses with Harness.Json, and every child span lies inside
     its parent;
   - compile.unattributed is at most 0.05. *)

module Json = Harness.Json

let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let field j key = Option.value (Json.field j key) ~default:Json.Jnull
let str j key = match field j key with Json.Jstr s -> s | _ -> ""
let num j key = match field j key with Json.Jnum f -> f | _ -> nan

let spec_metrics spec section =
  match field spec section with
  | Json.Jarr ms -> List.map (fun m -> (str m "name", str m "unit")) ms
  | _ -> []

(* Runs in an output: (header line, printed "name value unit" lines,
   closing JSON line). *)
let runs text =
  let finish acc = function
    | Some (header, printed, Some j) -> (header, List.rev printed, j) :: acc
    | Some (header, _, None) ->
      error "%s: no closing JSON line" header;
      acc
    | None -> acc
  in
  let acc, cur =
    List.fold_left
      (fun (acc, cur) line ->
        if String.starts_with ~prefix:"mrvbench " line then (finish acc cur, Some (line, [], None))
        else
          match cur with
          | None -> (acc, cur)
          | Some (header, printed, _) when String.starts_with ~prefix:"{" line ->
            (acc, Some (header, printed, Json.parse_result line |> Result.to_option))
          | Some (header, printed, j) -> (
            match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
            | [ name; _; unit ] -> (acc, Some (header, (name, unit) :: printed, j))
            | _ -> (acc, cur)))
      ([], None)
      (String.split_on_char '\n' text)
  in
  List.rev (finish acc cur)

let check_run expected (header, printed, j) =
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name printed with
      | Some u when u = unit -> ()
      | Some u -> error "%s: %s printed in %s, BENCHMARK.json says %s" header name u unit
      | None -> error "%s: %s not printed" header name)
    expected;
  (match j with
  | Json.Jobj members
    when List.sort compare (List.map fst members) = [ "attempted"; "correct"; "failed"; "metrics" ] -> ()
  | _ -> error "%s: JSON line keys are not correct, attempted, failed, metrics" header);
  (match field j "metrics" with
  | Json.Jobj ms ->
    if List.sort compare (List.map fst ms) <> List.sort compare (List.map fst expected) then
      error "%s: JSON metrics are not exactly those of BENCHMARK.json" header;
    List.iter
      (fun (name, m) ->
        (match m with
        | Json.Jobj kv when List.sort compare (List.map fst kv) = [ "unit"; "value" ] -> ()
        | _ -> error "%s: JSON metric %s is not {value, unit}" header name);
        (match List.assoc_opt name expected with
        | Some unit when str m "unit" <> unit ->
          error "%s: JSON metric %s in %s, BENCHMARK.json says %s" header name (str m "unit") unit
        | _ -> ());
        (* Not NaN, infinite, zero or negative.  A count may be 0 here:
           three small programs squash and collect less than a full
           sweep. *)
        let v = num m "value" in
        let floor_ok = if str m "unit" = "count" then v >= 0.0 else v > 0.0 in
        if not (floor_ok && Float.is_finite v) then
          error "%s: JSON metric %s = %g, not a positive number" header name v)
      ms
  | _ -> error "%s: JSON line without metrics" header);
  if field j "correct" <> Json.Jbool true || num j "failed" <> 0.0 || not (num j "attempted" >= 1.0)
  then error "%s: correct=false, failed ops or nothing attempted" header

let check_trace path =
  match Json.parse_result (Measure.read_file path) with
  | Error e -> error "%s does not parse: %s" path e
  | Ok doc ->
    let spans =
      match field doc "traceEvents" with
      | Json.Jarr evs ->
        List.filter_map
          (fun e ->
            if str e "ph" = "X" then
              let args = field e "args" in
              Some (num args "id", num args "parent", num e "ts", num e "ts" +. num e "dur", str e "name")
            else None)
          evs
      | _ -> []
    in
    let by_id = Hashtbl.create 1024 in
    List.iter (fun ((id, _, _, _, _) as s) -> Hashtbl.replace by_id id s) spans;
    (* Timestamps are microseconds rendered from integer nanoseconds. *)
    let eps = 1e-3 in
    List.iter
      (fun (id, parent, t0, t1, name) ->
        if parent >= 0.0 then
          match Hashtbl.find_opt by_id parent with
          | None -> error "trace: span %g (%s) has no parent %g" id name parent
          | Some (_, _, p0, p1, pname) ->
            if t0 < p0 -. eps || t1 > p1 +. eps then
              error "trace: span %g (%s) is not inside its parent %s" id name pname)
      spans;
    if not (List.exists (fun (_, _, _, _, n) -> n = "lang.check") spans) then
      error "trace: no staged compile spans"

let () =
  match Array.to_list Sys.argv with
  | [ _; spec; e2e; layer; trace ] ->
    let spec = Json.parse (Measure.read_file spec) in
    let e2e_runs = runs (Measure.read_file e2e) in
    if List.length e2e_runs <> 4 then error "expected 4 untraced runs, found %d" (List.length e2e_runs);
    List.iter (check_run (spec_metrics spec "end_to_end")) e2e_runs;
    (match runs (Measure.read_file layer) with
    | [ ((_, _, j) as run) ] ->
      check_run (spec_metrics spec "per_layer") run;
      let unattributed = num (field (field j "metrics") "compile.unattributed") "value" in
      if not (unattributed <= 0.05) then
        error "compile.unattributed = %g > 0.05" unattributed
    | l -> error "expected 1 traced run, found %d" (List.length l));
    check_trace trace;
    if !errors <> [] then begin
      List.iter (fun e -> prerr_endline ("smoke: " ^ e)) (List.rev !errors);
      exit 1
    end;
    print_endline "smoke: ok"
  | _ ->
    prerr_endline "usage: smoke.exe BENCHMARK.json E2E_OUTPUT LAYER_OUTPUT TRACE_JSON";
    exit 2

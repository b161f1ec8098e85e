module Json = Harness.Json

type op = Compile | Simulate | Profile

type t = {
  rq_id : int;
  rq_op : op;
  rq_bench : string option;
  rq_source : string option;
  rq_input : int list option;
  rq_mode : string;
  rq_threshold : float;
  rq_sync_sched : bool;
  rq_tick : int option;
  rq_deadline_s : float option;
  rq_fault : string option;
}

let op_name = function
  | Compile -> "compile"
  | Simulate -> "simulate"
  | Profile -> "profile"

let op_of_name = function
  | "compile" -> Some Compile
  | "simulate" -> Some Simulate
  | "profile" -> Some Profile
  | _ -> None

let known_fields =
  [
    "id"; "op"; "bench"; "source"; "input"; "mode"; "threshold"; "sync_sched";
    "tick"; "deadline_s"; "fault";
  ]

let ( let* ) = Result.bind

let parse_obj j =
  let* fields =
    match j with
    | Json.Jobj fs -> Ok fs
    | _ -> Error "request is not a JSON object"
  in
  let* () =
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
    with
    | Some (k, _) -> Error (Printf.sprintf "unknown field %S" k)
    | None -> Ok ()
  in
  let* id =
    match Json.field j "id" with
    | None -> Error "missing \"id\""
    | Some v -> Json.as_int "id" v
  in
  let* () = if id >= 0 then Ok () else Error "\"id\" must be non-negative" in
  let* opname =
    match Json.field j "op" with
    | None -> Error "missing \"op\""
    | Some v -> Json.as_str "op" v
  in
  let* op =
    match op_of_name opname with
    | Some op -> Ok op
    | None ->
      Error
        (Printf.sprintf "unknown op %S (have compile, simulate, profile)"
           opname)
  in
  let* bench = Json.opt_str j "bench" in
  let* source = Json.opt_str j "source" in
  let* () =
    match (bench, source) with
    | Some _, Some _ -> Error "give exactly one of \"bench\" / \"source\""
    | None, None -> Error "need a \"bench\" or \"source\""
    | _ -> Ok ()
  in
  let* input =
    match Json.field j "input" with
    | None -> Ok None
    | Some v ->
      let* items = Json.as_arr "input" v in
      let* ints =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* n = Json.as_int "input element" item in
            Ok (n :: acc))
          (Ok []) items
      in
      Ok (Some (List.rev ints))
  in
  let* mode =
    let* m = Json.opt_str j "mode" in
    match m with
    | None -> Ok "C"
    | Some m when List.mem_assoc m Tls.Config.modes -> Ok m
    | Some m ->
      Error
        (Printf.sprintf "unknown mode %S (have %s)" m
           (String.concat ", " (List.map fst Tls.Config.modes)))
  in
  let* threshold =
    let* t = Json.opt_num j "threshold" in
    match t with
    | None -> Ok Tlscore.Pipeline.default_threshold
    | Some t when t >= 0.0 && t <= 1.0 -> Ok t
    | Some t -> Error (Printf.sprintf "\"threshold\" %g out of [0,1]" t)
  in
  let* sync_sched =
    let* b = Json.opt_bool j "sync_sched" in
    Ok (Option.value b ~default:false)
  in
  let* tick =
    let* t = Json.opt_int j "tick" in
    match t with
    | Some t when t < 0 -> Error "\"tick\" must be non-negative"
    | t -> Ok t
  in
  let* deadline_s =
    let* d = Json.opt_num j "deadline_s" in
    match d with
    | Some d when d <= 0.0 -> Error "\"deadline_s\" must be positive"
    | d -> Ok d
  in
  let* fault =
    let* f = Json.opt_str j "fault" in
    match f with
    | None -> Ok None
    | Some name
      when Faults.Servefault.find name <> None || Faults.Fault.find name <> None
      ->
      Ok (Some name)
    | Some name -> Error (Printf.sprintf "unknown fault %S" name)
  in
  Ok
    {
      rq_id = id;
      rq_op = op;
      rq_bench = bench;
      rq_source = source;
      rq_input = input;
      rq_mode = mode;
      rq_threshold = threshold;
      rq_sync_sched = sync_sched;
      rq_tick = tick;
      rq_deadline_s = deadline_s;
      rq_fault = fault;
    }

let parse_line ~lineno line =
  let trimmed = String.trim line in
  if String.equal trimmed "" || (String.length trimmed > 0 && trimmed.[0] = '#')
  then Ok None
  else
    let located msg = Printf.sprintf "request line %d: %s" lineno msg in
    match Json.parse_result trimmed with
    | Error msg -> Error (located msg)
    | Ok j -> (
      match parse_obj j with
      | Ok r -> Ok (Some r)
      | Error msg -> Error (located msg))

let parse_all text =
  let lines = String.split_on_char '\n' text in
  let requests, errors =
    List.fold_left
      (fun (rs, es) (lineno, line) ->
        match parse_line ~lineno line with
        | Ok None -> (rs, es)
        | Ok (Some r) -> (r :: rs, es)
        | Error msg -> (rs, msg :: es))
      ([], [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let requests = List.rev requests and errors = List.rev errors in
  (* Duplicate ids would make responses ambiguous: reject up front. *)
  let dup_errors =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun r ->
        if Hashtbl.mem seen r.rq_id then
          Some (Printf.sprintf "duplicate request id %d" r.rq_id)
        else begin
          Hashtbl.add seen r.rq_id ();
          None
        end)
      requests
  in
  match errors @ dup_errors with [] -> Ok requests | es -> Error es

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type status = Sok | Sdegraded | Sshed | Sdeadline | Serror

type cache_disp = Chit | Cmiss | Cstale | Cnone

type payload =
  | Result of Json.t
  | Failure of { err_class : string; err_msg : string }

type response = {
  rs_id : int;
  rs_status : status;
  rs_cache : cache_disp;
  rs_attempts : int;
  rs_wall_ns : int option;
  rs_payload : payload;
}

let status_name = function
  | Sok -> "ok"
  | Sdegraded -> "degraded"
  | Sshed -> "shed"
  | Sdeadline -> "deadline"
  | Serror -> "error"

let cache_name = function
  | Chit -> "hit"
  | Cmiss -> "miss"
  | Cstale -> "stale"
  | Cnone -> "none"

let response_line r =
  let base =
    [
      ("id", Json.Jnum (float_of_int r.rs_id));
      ("status", Json.Jstr (status_name r.rs_status));
      ("cache", Json.Jstr (cache_name r.rs_cache));
      ("attempts", Json.Jnum (float_of_int r.rs_attempts));
    ]
  in
  let timing =
    match r.rs_wall_ns with
    | None -> []
    | Some ns -> [ ("wall_ns", Json.Jnum (float_of_int ns)) ]
  in
  let tail =
    match r.rs_payload with
    | Result j -> [ ("result", j) ]
    | Failure { err_class; err_msg } ->
      [ ("error_class", Json.Jstr err_class); ("error", Json.Jstr err_msg) ]
  in
  Json.to_string (Json.Jobj (base @ timing @ tail))

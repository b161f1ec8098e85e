module Json = Harness.Json
open Request

type outcome =
  | Passed
  | Absorbed
  | Degraded
  | Detected of string
  | Skipped
  | Failed of string

type cell = {
  c_program : string;
  c_fault : string;
  c_class : string;
  c_outcome : outcome;
}

let base_request ?fault ?deadline ?tick ~id name =
  {
    rq_id = id;
    rq_op = Simulate;
    rq_bench = Some name;
    rq_source = None;
    rq_input = None;
    rq_mode = "C";
    rq_threshold = Tlscore.Pipeline.default_threshold;
    rq_sync_sched = false;
    rq_tick = tick;
    rq_deadline_s = deadline;
    rq_fault = fault;
  }

let svc_config ~jobs ~queue ~dir =
  {
    Service.sc_cache_dir = Some dir;
    sc_queue = queue;
    sc_rate = 4;
    sc_jobs = jobs;
    sc_deadline_s = 60.0;
    sc_retries = 1;
    sc_timing = false;
  }

let run_one cfg rq =
  match Service.run cfg [ rq ] with
  | { Service.so_responses = [ r ]; so_stats } -> (r, so_stats)
  | _ -> assert false

let result_field r name =
  match r.rs_payload with Result j -> Json.field j name | Failure _ -> None

let result_bool r name =
  match result_field r name with Some (Json.Jbool b) -> Some b | _ -> None

let result_int r name =
  match result_field r name with
  | Some (Json.Jnum f) -> Some (int_of_float f)
  | _ -> None

let result_str r name =
  match result_field r name with Some (Json.Jstr s) -> Some s | _ -> None

let failure r =
  match r.rs_payload with
  | Failure { err_class; err_msg } -> Some (err_class, err_msg)
  | Result _ -> None

let describe r =
  match failure r with
  | Some (cls, msg) -> Printf.sprintf "%s (%s): %s" (status_name r.rs_status) cls msg
  | None -> Printf.sprintf "unexpected status %s" (status_name r.rs_status)

(* The fault-free request correct-output check, shared by the baseline
   and the absorbed-fault cells. *)
let check_ok r ~on_ok =
  match r.rs_status with
  | Sok -> (
    match result_bool r "output_match" with
    | Some true -> on_ok
    | _ -> Failed "output differs from sequential reference")
  | _ -> Failed (describe r)

let serve_cell ~cfg ~dir ~baseline_digest prog (spec : Faults.Servefault.spec) =
  let rq ?deadline ?tick ~id () =
    base_request ?deadline ?tick ~fault:spec.Faults.Servefault.sf_name ~id prog
  in
  match spec.Faults.Servefault.sf_kind with
  | Faults.Servefault.Slow_job -> (
    (* A tight per-request deadline keeps the injected sleeps short; the
       retry schedule still runs in full before the typed rejection. *)
    let r, _ = run_one cfg (rq ~deadline:0.05 ~id:1 ()) in
    match r.rs_status with
    | Sdeadline -> Detected (Printf.sprintf "deadline after %d attempts" r.rs_attempts)
    | _ -> Failed (describe r))
  | Faults.Servefault.Transient_io -> (
    let r, _ = run_one cfg (rq ~id:2 ()) in
    match r.rs_status with
    | Sok when r.rs_attempts < 2 -> Failed "absorbed without a retry"
    | _ -> check_ok r ~on_ok:Absorbed)
  | Faults.Servefault.Always_transient -> (
    let r, _ = run_one cfg (rq ~id:3 ()) in
    match r.rs_status with
    | Sdegraded when r.rs_cache = Cstale ->
      if result_str r "digest" = baseline_digest then Degraded
      else Failed "degraded artifact is not the last-known-good one"
    | _ -> Failed (describe r))
  | Faults.Servefault.Cache_corrupt -> (
    (* Flip a payload byte of the primed entry on disk, then replay the
       fault-free request: the service must detect the bad digest,
       quarantine, and recompute. *)
    let prime = base_request ~id:4 prog in
    match Service.resolve prime with
    | Error msg -> Failed msg
    | Ok (source, input) -> (
      let key = Service.exact_key prime ~source ~input in
      let c, _ = Cache.open_dir ~dir in
      let path = Cache.entry_path c ~key in
      if not (Sys.file_exists path) then
        Failed "expected a primed cache entry to corrupt"
      else begin
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let bytes = Bytes.of_string (really_input_string ic n) in
        close_in ic;
        let last = Bytes.length bytes - 1 in
        Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xff));
        let oc = open_out_bin path in
        output_bytes oc bytes;
        close_out oc;
        let r, st = run_one cfg prime in
        let quarantined =
          st.Service.st_quarantined <> []
          || match st.Service.st_cache with
             | Some cs -> cs.Cache.cs_quarantined > 0
             | None -> false
        in
        match r.rs_status with
        | Sok when r.rs_cache = Chit -> Failed "corrupt entry served as a hit"
        | Sok when not quarantined -> Failed "corrupt entry not quarantined"
        | _ -> check_ok r ~on_ok:Absorbed
      end))
  | Faults.Servefault.Burst -> (
    let cfg = { cfg with Service.sc_queue = 4 } in
    let rqs = List.init 12 (fun i -> base_request ~tick:0 ~id:(10 + i) prog) in
    let o = Service.run cfg rqs in
    let st = o.Service.so_stats in
    if
      st.Service.st_error = 0
      && st.Service.st_shed > 0
      && st.Service.st_ok = st.Service.st_requests - st.Service.st_shed
    then
      Detected
        (Printf.sprintf "%d admitted ok, %d shed (typed)" st.Service.st_ok
           st.Service.st_shed)
    else
      Failed
        (Printf.sprintf "burst: %d ok, %d shed, %d errors of %d"
           st.Service.st_ok st.Service.st_shed st.Service.st_error
           st.Service.st_requests))

let plan_cell ~cfg prog (spec : Faults.Fault.spec) =
  let r, _ = run_one cfg (base_request ~fault:spec.Faults.Fault.name ~id:5 prog) in
  let detectable = spec.Faults.Fault.classification = Faults.Fault.Detectable in
  match r.rs_status with
  | Sok -> (
    let armed =
      match spec.Faults.Fault.plan with
      | Faults.Fault.Sim_fault _ -> result_int r "faults_fired" <> Some 0
      | _ -> true
    in
    if not armed then Skipped
    else
      match result_bool r "output_match" with
      | Some true -> Absorbed
      | _ -> Failed "output differs from sequential reference")
  | Serror -> (
    match failure r with
    | Some (("deadlock" | "stuck"), msg) when detectable -> Detected msg
    | Some ("fault-inapplicable", _) -> Skipped
    | Some ("cycle-limit", _) ->
      Failed "hang: cycle budget hit (watchdog missed it)"
    | Some (cls, msg) -> Failed (cls ^ ": " ^ msg)
    | None -> Failed "error status without an error payload")
  | _ -> Failed (describe r)

let run_program ~log ~jobs ~cache_dir prog =
  let dir = Filename.concat cache_dir prog in
  Cache.remove_tree dir;
  let cfg = svc_config ~jobs ~queue:16 ~dir in
  let cell fault cls outcome =
    { c_program = prog; c_fault = fault; c_class = cls; c_outcome = outcome }
  in
  (* The baseline doubles as the cache-priming run: its stored artifact
     is the last-known-good the degradation cells fall back to. *)
  let baseline_r, _ = run_one cfg (base_request ~id:0 prog) in
  let baseline = cell "none" "baseline" (check_ok baseline_r ~on_ok:Passed) in
  let baseline_digest = result_str baseline_r "digest" in
  let serve_cells =
    List.map
      (fun (spec : Faults.Servefault.spec) ->
        cell spec.Faults.Servefault.sf_name
          (Faults.Servefault.expectation_name spec.Faults.Servefault.sf_expect)
          (serve_cell ~cfg ~dir ~baseline_digest prog spec))
      Faults.Servefault.catalog
  in
  let plan_cells =
    List.map
      (fun (spec : Faults.Fault.spec) ->
        cell spec.Faults.Fault.name
          (Faults.Fault.classification_name spec.Faults.Fault.classification)
          (plan_cell ~cfg prog spec))
      Faults.Fault.catalog
  in
  let cells = (baseline :: serve_cells) @ plan_cells in
  let failed =
    List.length
      (List.filter
         (fun c -> match c.c_outcome with Failed _ -> true | _ -> false)
         cells)
  in
  log
    (Printf.sprintf "%-12s %d cells%s" prog (List.length cells)
       (if failed = 0 then "" else Printf.sprintf ", %d FAILED" failed));
  cells

let run ?(log = fun _ -> ()) ?(jobs = 1) ~cache_dir ~programs () =
  List.concat_map (run_program ~log ~jobs ~cache_dir) programs

let outcome_letter = function
  | Passed -> 'P'
  | Absorbed -> 'A'
  | Degraded -> 'G'
  | Detected _ -> 'D'
  | Skipped -> 'S'
  | Failed _ -> 'F'

let count_failed cells =
  List.length
    (List.filter
       (fun c -> match c.c_outcome with Failed _ -> true | _ -> false)
       cells)

let ordered key cells =
  List.rev
    (List.fold_left
       (fun acc c ->
         let k = key c in
         if List.mem k acc then acc else k :: acc)
       [] cells)

let render_table cells =
  let buf = Buffer.create 1024 in
  let faults = ordered (fun c -> c.c_fault) cells in
  let programs = ordered (fun c -> c.c_program) cells in
  let class_of fault =
    List.find_map
      (fun c -> if String.equal c.c_fault fault then Some c.c_class else None)
      cells
    |> Option.value ~default:"?"
  in
  let letter fault prog =
    match
      List.find_opt
        (fun c ->
          String.equal c.c_fault fault && String.equal c.c_program prog)
        cells
    with
    | Some c -> String.make 1 (outcome_letter c.c_outcome)
    | None -> "-"
  in
  let rows =
    List.map
      (fun fault ->
        fault :: class_of fault :: List.map (letter fault) programs)
      faults
  in
  let header = "fault" :: "class" :: programs in
  let table = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 table
  in
  let widths = List.init ncols width in
  List.iter
    (fun row ->
      List.iteri
        (fun i c ->
          Buffer.add_string buf (Printf.sprintf "%-*s" (List.nth widths i) c);
          if i < ncols - 1 then Buffer.add_string buf "  ")
        row;
      Buffer.add_char buf '\n')
    table;
  let tally letter =
    List.length
      (List.filter (fun c -> outcome_letter c.c_outcome = letter) cells)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "cells: %d total | %d passed | %d absorbed | %d degraded | %d detected \
        | %d skipped | %d FAILED\n"
       (List.length cells) (tally 'P') (tally 'A') (tally 'G') (tally 'D')
       (tally 'S') (tally 'F'));
  Buffer.contents buf

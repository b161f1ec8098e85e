type program = {
  p_name : string;
  p_source : string;
  p_train : int array;
  p_ref : int array;
  p_select_main : bool;
}

type outcome =
  | Passed
  | Absorbed
  | Detected of string
  | Skipped
  | Failed of string

type cell = {
  c_program : string;
  c_mode : string;
  c_fault : string;
  c_class : Fault.classification option;
  c_outcome : outcome;
}

let default_modes = List.remove_assoc "P" Tls.Config.modes

let seq_output source input =
  let prog = Tlscore.Pipeline.original ~source in
  let code = Runtime.Code.of_prog prog in
  let mem = Runtime.Memory.create () in
  Runtime.Thread.run_sequential code ~input mem

let compile ?profile_fault ?(sync_sched = false) p =
  let selection =
    if not p.p_select_main then None
    else
      let prog = Tlscore.Pipeline.original ~source:p.p_source in
      Some
        (List.filter
           (fun k -> String.equal k.Profiler.Profile.lk_func "main")
           (Profiler.Runner.all_loops prog))
  in
  Tlscore.Pipeline.compile ?selection ?profile_fault ~lint:false ~sync_sched
    ~source:p.p_source ~profile_input:p.p_train
    ~memory_sync:
      (Tlscore.Pipeline.Profiled
         {
           dep_input = p.p_train;
           threshold = Tlscore.Pipeline.default_threshold;
         })
    ()

(* Whether a fault's injection sites are even reachable under [cfg]:
   profile distortions and the signal-path simulator faults only matter
   when the simulator honors compiler-inserted memory synchronization. *)
let fault_applies cfg (spec : Fault.spec) =
  let stall = cfg.Tls.Config.stall_compiler_sync in
  match spec.Fault.plan with
  | Fault.No_fault | Fault.Ir_fault _ -> true
  | Fault.Profile_fault _ | Fault.Stale_train -> stall
  | Fault.Sim_fault (Tls.Config.Spurious_violation _) -> true
  | Fault.Sim_fault _ -> stall

type run_kind = Baseline | Faulty of Fault.classification

(* Run one simulation and classify it.  The classification is empirical:
   a detectable fault that completes with the right output was
   legitimately absorbed (discarded epoch, unexercised site); what it can
   never do is produce wrong output or hang. *)
let evaluate ~kind ~expected ?(armed = fun _ -> true) run =
  match run () with
  | r ->
    if not (armed r) then Skipped
    else if r.Tls.Simstats.output = expected then
      match kind with Baseline -> Passed | Faulty _ -> Absorbed
    else Failed "output differs from sequential reference"
  | exception Tls.Sim.Deadlock msg -> (
    match kind with
    | Faulty Fault.Detectable -> Detected ("deadlock: " ^ msg)
    | _ -> Failed ("unexpected deadlock: " ^ msg))
  | exception Tls.Sim.Stuck d -> (
    let msg = Tls.Sim.describe_stuck d in
    match kind with
    | Faulty Fault.Detectable -> Detected msg
    | _ -> Failed ("unexpected stuck: " ^ msg))
  | exception Tls.Sim.Cycle_limit { cycle; _ } ->
    Failed
      (Printf.sprintf "hang: cycle budget hit at cycle %d (watchdog missed it)"
         cycle)
  | exception e -> Failed (Printexc.to_string e)

let run_program ?(log = fun _ -> ()) ?(sync_sched = false) ~modes ~faults p =
  let seq_train = seq_output p.p_source p.p_train in
  let seq_ref = lazy (seq_output p.p_source p.p_ref) in
  let base = compile ~sync_sched p in
  (* Shared across modes: profile-fault recompiles and IR mutations are
     mode-independent, so build each at most once per program. *)
  let profile_compiles : (string, (Tlscore.Pipeline.compiled, string) result) Hashtbl.t =
    Hashtbl.create 4
  in
  let compile_faulty name pf =
    match Hashtbl.find_opt profile_compiles name with
    | Some r -> r
    | None ->
      let r =
        try Ok (compile ~profile_fault:(Proffault.apply pf) ~sync_sched p)
        with e -> Error ("compile: " ^ Printexc.to_string e)
      in
      Hashtbl.replace profile_compiles name r;
      r
  in
  let ir_mutants : (string, Runtime.Code.t option) Hashtbl.t =
    Hashtbl.create 8
  in
  let mutate name kind =
    match Hashtbl.find_opt ir_mutants name with
    | Some r -> r
    | None ->
      let r =
        match Irfault.apply kind base.Tlscore.Pipeline.prog with
        | None -> None
        | Some a -> Some (Runtime.Code.of_prog a.Irfault.prog)
      in
      Hashtbl.replace ir_mutants name r;
      r
  in
  let cell ~mode ~fault ~cls outcome =
    { c_program = p.p_name; c_mode = mode; c_fault = fault; c_class = cls;
      c_outcome = outcome }
  in
  let run_mode (mode_name, cfg) =
    let run_code ?(cfg = cfg) ?(input = p.p_train) code () =
      Tls.Sim.run cfg code ~input ()
    in
    let baseline =
      cell ~mode:mode_name ~fault:"none" ~cls:None
        (evaluate ~kind:Baseline ~expected:seq_train
           (run_code base.Tlscore.Pipeline.code))
    in
    let fault_cell (spec : Fault.spec) =
      let cls = Some spec.Fault.classification in
      let kind = Faulty spec.Fault.classification in
      let mk = cell ~mode:mode_name ~fault:spec.Fault.name ~cls in
      if not (fault_applies cfg spec) then mk Skipped
      else
        match spec.Fault.plan with
        | Fault.No_fault ->
          mk
            (evaluate ~kind ~expected:seq_train
               (run_code base.Tlscore.Pipeline.code))
        | Fault.Profile_fault pf -> (
          match compile_faulty spec.Fault.name pf with
          | Error msg -> mk (Failed msg)
          | Ok compiled ->
            mk
              (evaluate ~kind ~expected:seq_train
                 (run_code compiled.Tlscore.Pipeline.code)))
        | Fault.Stale_train ->
          (* Same artifact, trained on p_train, run on p_ref: the profile
             is stale by construction. *)
          mk
            (evaluate ~kind ~expected:(Lazy.force seq_ref)
               (run_code ~input:p.p_ref base.Tlscore.Pipeline.code))
        | Fault.Ir_fault k -> (
          match mutate spec.Fault.name k with
          | None -> mk Skipped
          | Some code -> mk (evaluate ~kind ~expected:seq_train (run_code code)))
        | Fault.Sim_fault f ->
          let cfg = { cfg with Tls.Config.sim_faults = [ f ] } in
          mk
            (evaluate ~kind ~expected:seq_train
               ~armed:(fun r -> r.Tls.Simstats.faults_fired > 0)
               (run_code ~cfg base.Tlscore.Pipeline.code))
    in
    baseline :: List.map fault_cell faults
  in
  let cells = List.concat_map run_mode modes in
  let failed =
    List.length
      (List.filter (fun c -> match c.c_outcome with Failed _ -> true | _ -> false)
         cells)
  in
  log
    (Printf.sprintf "%-12s %d cells%s" p.p_name (List.length cells)
       (if failed = 0 then "" else Printf.sprintf ", %d FAILED" failed));
  cells

(* [map] lets the caller plug in a parallel order-preserving mapper
   (e.g. Harness.Jobs).  Per-program log lines are collected inside each
   job and replayed in program order once the whole matrix is done, so
   the bytes sent to [log] are identical whatever mapper runs the cells
   — the property the determinism suite pins. *)
let run_matrix ?(log = fun _ -> ()) ?(map = fun f l -> List.map f l)
    ?sync_sched ~modes ~faults programs =
  let per_program =
    map
      (fun p ->
        let lines = ref [] in
        let cells =
          run_program
            ~log:(fun s -> lines := s :: !lines)
            ?sync_sched ~modes ~faults p
        in
        (List.rev !lines, cells))
      programs
  in
  List.iter (fun (lines, _) -> List.iter log lines) per_program;
  List.concat_map snd per_program

let fuzz_programs ~count ~seed =
  List.init count (fun i ->
      let s = seed + i in
      let source, input = Proggen.generate ~seed:s in
      {
        p_name = Printf.sprintf "gen-%d" s;
        p_source = source;
        p_train = input;
        p_ref = input;
        p_select_main = true;
      })

let count_failed cells =
  List.length
    (List.filter
       (fun c -> match c.c_outcome with Failed _ -> true | _ -> false)
       cells)

(* ------------------------------------------------------------------ *)
(* Capacity sweep: finite-resource degradation (DESIGN §12)            *)
(* ------------------------------------------------------------------ *)

type capacity_axis =
  | Cap_sig_buffer
  | Cap_spec_stall
  | Cap_spec_squash
  | Cap_fwd_queue

let capacity_axes =
  [ Cap_sig_buffer; Cap_spec_stall; Cap_spec_squash; Cap_fwd_queue ]

let axis_name = function
  | Cap_sig_buffer -> "sig-buffer"
  | Cap_spec_stall -> "spec-lines/stall"
  | Cap_spec_squash -> "spec-lines/squash"
  | Cap_fwd_queue -> "fwd-queue"

type capacity_cell = {
  cc_program : string;
  cc_mode : string;
  cc_axis : capacity_axis;
  cc_peak : int;
  cc_limit : int;
  cc_events : int;
  cc_outcome : outcome;
}

let apply_axis axis limit cfg =
  match axis with
  | Cap_sig_buffer -> { cfg with Tls.Config.sig_buffer_entries = limit }
  | Cap_spec_stall ->
    {
      cfg with
      Tls.Config.spec_lines_per_epoch = limit;
      overflow_policy = Tls.Config.Overflow_stall;
    }
  | Cap_spec_squash ->
    {
      cfg with
      Tls.Config.spec_lines_per_epoch = limit;
      overflow_policy = Tls.Config.Overflow_squash;
    }
  | Cap_fwd_queue -> { cfg with Tls.Config.fwd_queue_depth = limit }

let axis_peak axis (r : Tls.Simstats.result) =
  match axis with
  | Cap_sig_buffer -> r.Tls.Simstats.max_signal_buffer
  | Cap_spec_stall | Cap_spec_squash ->
    r.Tls.Simstats.resources.Tls.Simstats.rs_peak_spec_lines
  | Cap_fwd_queue -> r.Tls.Simstats.resources.Tls.Simstats.rs_peak_fwd_queue

let axis_events axis (r : Tls.Simstats.result) =
  match axis with
  | Cap_sig_buffer -> r.Tls.Simstats.resources.Tls.Simstats.rs_sig_drops
  | Cap_spec_stall | Cap_spec_squash ->
    r.Tls.Simstats.resources.Tls.Simstats.rs_spec_overflows
  | Cap_fwd_queue -> r.Tls.Simstats.resources.Tls.Simstats.rs_bp_signals

(* One run under [limit] on [axis].  The absorbable axes (signal-buffer
   drops degrade forwarding to the violation-protected NULL path;
   speculative-state overflow stalls or squashes) must stay sequentially
   equivalent under any limit.  The forwarding-queue axis is detectable:
   a backpressure cycle must surface as the typed
   {!Tls.Sim.Resource_deadlock} (or the watchdog's {!Tls.Sim.Stuck}),
   never as a hang that reaches the cycle budget. *)
let probe_axis ~expected ~cfg ~code ~input axis limit =
  let cfg = apply_axis axis limit cfg in
  match Tls.Sim.run cfg code ~input () with
  | r ->
    let events = axis_events axis r in
    let outcome =
      if events = 0 then Skipped
      else if r.Tls.Simstats.output = expected then Absorbed
      else Failed "output differs from sequential reference"
    in
    (events, outcome)
  | exception Tls.Sim.Resource_deadlock d -> (
    let msg = Tls.Sim.describe_resource_deadlock d in
    match axis with
    | Cap_fwd_queue -> (1, Detected msg)
    | _ -> (1, Failed ("unexpected resource deadlock: " ^ msg)))
  | exception Tls.Sim.Stuck d -> (
    let msg = Tls.Sim.describe_stuck d in
    match axis with
    | Cap_fwd_queue -> (1, Detected msg)
    | _ -> (1, Failed ("unexpected stuck: " ^ msg)))
  | exception Tls.Sim.Deadlock msg -> (1, Failed ("unexpected deadlock: " ^ msg))
  | exception Tls.Sim.Cycle_limit { cycle; _ } ->
    ( 1,
      Failed
        (Printf.sprintf
           "hang: cycle budget hit at cycle %d (watchdog missed it)" cycle) )
  | exception e -> (1, Failed (Printexc.to_string e))

(* Halve the limit starting from [peak / 2] until the resource actually
   degrades (>= 1 event), and report that first-triggering limit.  A peak
   of 0 (the mode never uses the resource) or a sweep that bottoms out at
   limit 0 without a single event is Skipped — the axis is not
   exercisable for this program x mode. *)
let sweep_axis ~expected ~cfg ~code ~input ~program ~mode axis peak =
  let mk limit events outcome =
    {
      cc_program = program;
      cc_mode = mode;
      cc_axis = axis;
      cc_peak = peak;
      cc_limit = limit;
      cc_events = events;
      cc_outcome = outcome;
    }
  in
  if peak <= 0 then mk 0 0 Skipped
  else
    let rec go limit =
      let events, outcome = probe_axis ~expected ~cfg ~code ~input axis limit in
      if events > 0 then mk limit events outcome
      else if limit = 0 then mk 0 0 Skipped
      else go (limit / 2)
    in
    go (peak / 2)

let run_capacity_program ?(log = fun _ -> ()) ?(sync_sched = false) ~modes p =
  let expected = seq_output p.p_source p.p_train in
  let base = compile ~sync_sched p in
  let code = base.Tlscore.Pipeline.code in
  let input = p.p_train in
  let run_mode (mode_name, cfg) =
    (* Unbounded baseline: harvest each resource's peak occupancy so the
       sweep starts from a limit the run is known to exceed. *)
    match Tls.Sim.run cfg code ~input () with
    | r ->
      List.map
        (fun axis ->
          sweep_axis ~expected ~cfg ~code ~input ~program:p.p_name
            ~mode:mode_name axis (axis_peak axis r))
        capacity_axes
    | exception e ->
      let msg = "baseline: " ^ Printexc.to_string e in
      List.map
        (fun axis ->
          {
            cc_program = p.p_name;
            cc_mode = mode_name;
            cc_axis = axis;
            cc_peak = 0;
            cc_limit = 0;
            cc_events = 0;
            cc_outcome = Failed msg;
          })
        capacity_axes
  in
  let cells = List.concat_map run_mode modes in
  let failed =
    List.length
      (List.filter
         (fun c -> match c.cc_outcome with Failed _ -> true | _ -> false)
         cells)
  in
  log
    (Printf.sprintf "%-12s %d capacity cells%s" p.p_name (List.length cells)
       (if failed = 0 then "" else Printf.sprintf ", %d FAILED" failed));
  cells

let run_capacity ?(log = fun _ -> ()) ?(map = fun f l -> List.map f l)
    ?sync_sched ~modes programs =
  let per_program =
    map
      (fun p ->
        let lines = ref [] in
        let cells =
          run_capacity_program
            ~log:(fun s -> lines := s :: !lines)
            ?sync_sched ~modes p
        in
        (List.rev !lines, cells))
      programs
  in
  List.iter (fun (lines, _) -> List.iter log lines) per_program;
  List.concat_map snd per_program

let count_capacity_failed cells =
  List.length
    (List.filter
       (fun c -> match c.cc_outcome with Failed _ -> true | _ -> false)
       cells)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let outcome_letter = function
  | Passed -> 'P'
  | Absorbed -> 'A'
  | Detected _ -> 'D'
  | Skipped -> 'S'
  | Failed _ -> 'F'

(* Stable de-duplicated list of keys in first-appearance order. *)
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
  let modes = ordered (fun c -> c.c_mode) cells in
  let class_of fault =
    List.find_map
      (fun c -> if String.equal c.c_fault fault then Some c.c_class else None)
      cells
  in
  let summarize fault mode =
    let counts = Hashtbl.create 5 in
    List.iter
      (fun c ->
        if String.equal c.c_fault fault && String.equal c.c_mode mode then begin
          let l = outcome_letter c.c_outcome in
          Hashtbl.replace counts l (1 + Option.value ~default:0 (Hashtbl.find_opt counts l))
        end)
      cells;
    let part l =
      match Hashtbl.find_opt counts l with
      | None | Some 0 -> None
      | Some n -> Some (Printf.sprintf "%d%c" n l)
    in
    let parts = List.filter_map part [ 'F'; 'P'; 'A'; 'D'; 'S' ] in
    if parts = [] then "-" else String.concat " " parts
  in
  let rows =
    List.map
      (fun fault ->
        let cls =
          match class_of fault with
          | Some (Some c) -> Fault.classification_name c
          | _ -> "baseline"
        in
        fault :: cls :: List.map (summarize fault) modes)
      faults
  in
  let header = "fault" :: "class" :: modes in
  let table = header :: rows in
  let ncols = List.length header in
  let width i =
    List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 table
  in
  let widths = List.init ncols width in
  List.iter
    (fun row ->
      List.iteri
        (fun i s ->
          Buffer.add_string buf s;
          if i < ncols - 1 then
            Buffer.add_string buf
              (String.make (List.nth widths i - String.length s + 2) ' '))
        row;
      Buffer.add_char buf '\n')
    table;
  let tally letter =
    List.length
      (List.filter (fun c -> outcome_letter c.c_outcome = letter) cells)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "cells: %d total | %d passed | %d absorbed | %d detected | %d skipped | %d FAILED\n"
       (List.length cells) (tally 'P') (tally 'A') (tally 'D') (tally 'S')
       (tally 'F'));
  List.iter
    (fun c ->
      match c.c_outcome with
      | Failed msg ->
        Buffer.add_string buf
          (Printf.sprintf "FAILED  %s mode=%s fault=%s: %s\n" c.c_program
             c.c_mode c.c_fault msg)
      | _ -> ())
    cells;
  Buffer.contents buf

let outcome_word = function
  | Passed -> "passed"
  | Absorbed -> "absorbed"
  | Detected _ -> "detected"
  | Skipped -> "skipped"
  | Failed _ -> "FAILED"

let render_capacity_table cells =
  let buf = Buffer.create 1024 in
  let rows =
    List.map
      (fun c ->
        [
          c.cc_program;
          c.cc_mode;
          axis_name c.cc_axis;
          string_of_int c.cc_peak;
          string_of_int c.cc_limit;
          string_of_int c.cc_events;
          outcome_word c.cc_outcome;
        ])
      cells
  in
  Buffer.add_string buf
    (Support.Table.render
       ~aligns:
         Support.Table.[ Left; Left; Left; Right; Right; Right; Left ]
       ~header:[ "program"; "mode"; "axis"; "peak"; "limit"; "events"; "outcome" ]
       rows);
  Buffer.add_char buf '\n';
  let tally p = List.length (List.filter p cells) in
  Buffer.add_string buf
    (Printf.sprintf
       "capacity: %d cells | %d absorbed | %d detected | %d skipped | %d FAILED\n"
       (List.length cells)
       (tally (fun c -> c.cc_outcome = Absorbed))
       (tally (fun c ->
            match c.cc_outcome with Detected _ -> true | _ -> false))
       (tally (fun c -> c.cc_outcome = Skipped))
       (tally (fun c -> match c.cc_outcome with Failed _ -> true | _ -> false)));
  List.iter
    (fun c ->
      match c.cc_outcome with
      | Failed msg ->
        Buffer.add_string buf
          (Printf.sprintf "FAILED  %s mode=%s axis=%s limit=%d: %s\n"
             c.cc_program c.cc_mode (axis_name c.cc_axis) c.cc_limit msg)
      | _ -> ())
    cells;
  Buffer.contents buf

(* The compiler driver: parse, check, lower, profile, transform, run, and
   simulate mini-C programs.

   Examples:
     mrvcc dump-ir prog.c                  # lowered IR
     mrvcc run prog.c --in 1,2,3           # sequential execution
     mrvcc profile prog.c --in 1,2,3       # loop + dependence profile
     mrvcc compile prog.c --in 1,2,3       # show regions and sync insertion
     mrvcc lint prog.c --in 1,2,3          # static sync-placement checks
     mrvcc lint                            # lint every bundled benchmark
     mrvcc simulate prog.c --in 1,2,3 --mode C   # TLS simulation
     mrvcc simulate --bench parser --mode H      # a bundled benchmark
     mrvcc simulate --bench mcf --sync-sched     # with the sync scheduler
     mrvcc simulate --bench mcf --engine ref     # cycle-stepped oracle engine
     mrvcc analyze --bench mcf                   # static stall + violation model
     mrvcc analyze --bench mcf --validate        # ... checked against the sim
     mrvcc analyze --bench mcf --json            # machine-readable estimates
     mrvcc simulate --bench parser --mutate drop-wait  # fault injection
     mrvcc chaos --bench all                     # full resilience matrix
     mrvcc chaos --bench all --jobs 4            # same matrix, 4 domains
     mrvcc chaos --fuzz 20 --seed 7              # chaos-fuzz generated programs
     mrvcc chaos --bench all --capacity          # finite-resource sweep
     mrvcc exec --bench parser --domains 4       # real TLS run on domains
     mrvcc exec --bench go --mode U --record r.jsonl   # record a racy run
     mrvcc exec --bench go --mode U --replay r.jsonl   # reproduce it serially
     mrvcc exec --bench mcf --inject crash:1     # runtime fault injection
     mrvcc chaos exec --bench mcf,parser         # runtime-fault matrix
     mrvcc serve requests.jsonl                  # compile service, JSONL in/out
     mrvcc serve requests.jsonl --cache-dir .cache --deadline 5 --retries 2
     mrvcc chaos serve --bench twolf,ijpeg       # service-layer fault matrix

   Each command takes only the flags it reads, documented by
   `mrvcc COMMAND --help`.  Timing lives in mrvbench (`bash
   mrvbench/run.sh`); the simulated counts are pinned by `dune build
   @counters`.

   Exit codes: 0 success; 1 findings / failed cells / output mismatch;
   2 usage error (an unknown command, a flag the command does not take
   or a bad flag value, all caught while parsing; an unreadable FILE; a
   malformed serve request document);
   3 simulator deadlock; 4 simulator stuck (watchdog or protocol
   check); 5 cycle/step budget exhausted; 6 malformed sequential
   execution (reserved: sequential hooks cannot block today, see README);
   7 resource deadlock (finite forwarding queue backpressured a producer
   into a cycle); 8 serve admission queue shed at least one request;
   9 a wall deadline was exceeded (a serve request or a --timeout
   matrix job past its retry schedule); 10 the speculative runtime
   wedged (exec wall-clock watchdog fired, typed Specrt_stuck); 11 an
   epoch exhausted its abort budget under exec (typed Abort_exhausted). *)

(* Read a file named on the command line; a missing or unreadable one
   is a usage error (exit 2), not an uncaught exception. *)
let read_input read path =
  try read path
  with Sys_error msg ->
    Printf.eprintf "cannot read %s\n"
      (if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg);
    exit 2

let read_file =
  read_input (fun path -> In_channel.with_open_bin path In_channel.input_all)

(* Resolve source and input from either a file or a bundled benchmark;
   --in replaces the benchmark's reference input (a file's default input
   is empty). *)
let resolve_program file (bench : Workloads.Workload.t option) input =
  let input = Option.map Array.of_list input in
  match (bench, file) with
  | Some w, _ -> (w.source, Option.value input ~default:w.ref_input)
  | None, Some path -> (read_file path, Option.value input ~default:[||])
  | None, None ->
    prerr_endline "need a source file or --bench";
    exit 2

(* How lint and analyze name the program in their reports. *)
let program_label file (bench : Workloads.Workload.t option) =
  match (bench, file) with
  | Some w, _ -> w.name
  | None, Some path -> path
  | None, None -> "program"

let with_errors f =
  try f () with
  | Lang.Lexer.Error (msg, pos) ->
    Printf.eprintf "lex error at %d:%d: %s\n" pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 1
  | Lang.Parser.Error (msg, pos) ->
    Printf.eprintf "parse error at %d:%d: %s\n" pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 1
  | Lang.Sema.Error (msg, pos) ->
    Printf.eprintf "type error at %d:%d: %s\n" pos.Lang.Token.line
      pos.Lang.Token.col msg;
    exit 1

(* Map the typed runtime/simulator errors to distinct exit codes with
   one-line messages, so scripts can tell a hang from a protocol bug. *)
let guarded f =
  try f () with
  | Tls.Sim.Deadlock msg ->
    Printf.eprintf "deadlock: %s\n" msg;
    exit 3
  | Tls.Sim.Stuck d ->
    Printf.eprintf "stuck: %s\n" (Tls.Sim.describe_stuck d);
    exit 4
  | Tls.Sim.Cycle_limit { max_cycles; cycle; where } ->
    Printf.eprintf "cycle budget exhausted: %s hit %d cycles (limit %d)\n"
      where cycle max_cycles;
    exit 5
  | Runtime.Thread.Step_limit { max_steps; icount } ->
    Printf.eprintf
      "step budget exhausted: %d instructions executed (limit %d)\n" icount
      max_steps;
    exit 5
  | Runtime.Thread.Unexpected_stop { reason; icount } ->
    Printf.eprintf "sequential thread %s after %d instructions\n" reason icount;
    exit 6
  | Tls.Sim.Resource_deadlock d ->
    Printf.eprintf "resource deadlock: %s\n"
      (Tls.Sim.describe_resource_deadlock d);
    exit 7
  | Harness.Jobs.Retries_exhausted { index; attempts } ->
    Printf.eprintf "job %d exhausted its retry budget (%d attempts)\n" index
      (List.length attempts);
    exit 9
  | Specrt.Exec_deadlock msg ->
    Printf.eprintf "exec deadlock: %s\n" msg;
    exit 3
  | Specrt.Specrt_stuck { watchdog_ms; detail } ->
    Printf.eprintf "exec stuck: no progress for %d ms: %s\n" watchdog_ms detail;
    exit 10
  | Specrt.Abort_exhausted { instance; index; aborts; max_aborts } ->
    Printf.eprintf
      "exec abort budget exhausted: instance %d epoch %d squashed %d times \
       (budget %d)\n"
      instance index aborts max_aborts;
    exit 11

let apply_mutation kind prog =
  match Faults.Irfault.apply kind prog with
  | Some applied -> applied.Faults.Irfault.prog
  | None ->
    Printf.eprintf "mutation %s not applicable to this program\n"
      (Faults.Irfault.kind_name kind);
    exit 2

let cmd_dump_ir file bench =
  let source, _ = resolve_program file bench None in
  with_errors (fun () ->
      print_string (Ir.Pp.program (Ir.Lower.compile_source source)))

let cmd_run file bench input =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let prog = Ir.Lower.compile_source source in
      let code = Runtime.Code.of_prog prog in
      let mem = Runtime.Memory.create () in
      let out = Runtime.Thread.run_sequential code ~input mem in
      List.iter (fun v -> Printf.printf "%d\n" v) out)

let cmd_depgraph file bench input threshold =
  (* Emit the dependence graph of each selected region as Graphviz DOT
     (the paper's Figure 5). *)
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let prog = Ir.Lower.compile_source source in
      let profile = Profiler.Runner.run prog ~input ~watch:[] in
      let selected = Tlscore.Selection.select prog profile in
      let dp_run = Profiler.Runner.run prog ~input ~watch:selected in
      List.iter
        (fun (k : Profiler.Profile.loop_key) ->
          match Profiler.Profile.dep_profile dp_run k with
          | Some dp when Hashtbl.length dp.Profiler.Profile.dep_epochs > 0 ->
            Printf.printf "// region %s/L%d\n%s\n" k.Profiler.Profile.lk_func
              k.Profiler.Profile.lk_header
              (Profiler.Profile.to_dot ~threshold dp)
          | Some _ | None -> ())
        selected)

let cmd_profile file bench input threshold =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let prog = Ir.Lower.compile_source source in
      let profile = Profiler.Runner.run prog ~input ~watch:[] in
      Printf.printf "total dynamic instructions: %d\n\n"
        profile.Profiler.Profile.total_instrs;
      let cands = Tlscore.Selection.candidates prog profile in
      Printf.printf "region candidates (coverage / epochs-per-instance / instrs-per-epoch):\n";
      List.iter
        (fun (c : Tlscore.Selection.candidate) ->
          Printf.printf "  %s/L%d  %5.1f%%  %7.1f  %7.1f\n"
            c.Tlscore.Selection.key.Profiler.Profile.lk_func
            c.Tlscore.Selection.key.Profiler.Profile.lk_header
            (100.0 *. c.Tlscore.Selection.coverage)
            c.Tlscore.Selection.epochs_per_instance
            c.Tlscore.Selection.instrs_per_epoch)
        cands;
      let selected = Tlscore.Selection.select prog profile in
      Printf.printf "\nselected regions: %s\n\n"
        (String.concat ", "
           (List.map
              (fun (k : Profiler.Profile.loop_key) ->
                Printf.sprintf "%s/L%d" k.Profiler.Profile.lk_func
                  k.Profiler.Profile.lk_header)
              selected));
      let dp_run = Profiler.Runner.run prog ~input ~watch:selected in
      List.iter
        (fun (k : Profiler.Profile.loop_key) ->
          match Profiler.Profile.dep_profile dp_run k with
          | None -> ()
          | Some dp ->
            Printf.printf "loop %s/L%d: %d epochs; frequent dependences (>=%.0f%%):\n"
              k.Profiler.Profile.lk_func k.Profiler.Profile.lk_header
              dp.Profiler.Profile.total_epochs (100.0 *. threshold);
            List.iter
              (fun (d : Profiler.Profile.dep) ->
                let count =
                  match
                    Hashtbl.find_opt dp.Profiler.Profile.dep_epochs d
                  with
                  | Some c -> c
                  | None -> 0
                in
                Printf.printf "  %s -> %s  (%d epochs, %.0f%%)\n"
                  (Profiler.Profile.pp_access d.Profiler.Profile.producer)
                  (Profiler.Profile.pp_access d.Profiler.Profile.consumer)
                  count
                  (Support.Stats.percent (float_of_int count)
                     (float_of_int dp.Profiler.Profile.total_epochs)))
              (Profiler.Profile.frequent_deps dp ~threshold))
        selected)

let cmd_compile file bench input threshold sync_sched =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold })
          ()
      in
      Printf.printf "selected regions: %d\n"
        (List.length compiled.Tlscore.Pipeline.selected);
      List.iter
        (fun ((key : Profiler.Profile.loop_key), factor) ->
          if factor > 1 then
            Printf.printf "unrolled %s/L%d by %d\n" key.Profiler.Profile.lk_func
              key.Profiler.Profile.lk_header factor)
        compiled.Tlscore.Pipeline.unroll_factors;
      List.iter
        (fun (key, (stats : Tlscore.Memsync.stats)) ->
          Printf.printf
            "region %s/L%d: %d groups (%d static), %d sync loads, %d signals \
             (+%d guarded), %d clones (+%d instrs), %d latch nulls (%d elided)\n"
            key.Profiler.Profile.lk_func key.Profiler.Profile.lk_header
            stats.Tlscore.Memsync.ms_groups stats.Tlscore.Memsync.ms_static_groups
            stats.Tlscore.Memsync.ms_sync_loads stats.Tlscore.Memsync.ms_sync_stores
            stats.Tlscore.Memsync.ms_guarded_signals stats.Tlscore.Memsync.ms_clones
            stats.Tlscore.Memsync.ms_instrs_added stats.Tlscore.Memsync.ms_null_signals
            stats.Tlscore.Memsync.ms_elided_nulls)
        compiled.Tlscore.Pipeline.mem_stats;
      if sync_sched then
        Printf.printf "sync scheduler: %s\n"
          (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
      print_newline ();
      print_string (Ir.Pp.program compiled.Tlscore.Pipeline.prog))

(* Compile with memory sync on [input] and report synclint findings.
   Returns the finding count. *)
let lint_one ?mutate ~sync_sched ~label source input threshold =
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~lint:(mutate = None) ~sync_sched ~source
          ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold })
          ()
      in
      let prog, findings =
        match mutate with
        | None ->
          (compiled.Tlscore.Pipeline.prog, compiled.Tlscore.Pipeline.lint_findings)
        | Some kind ->
          (* Lint the mutated program: the clone keeps iids and labels, so
             the dependence profiles still apply. *)
          let prog = apply_mutation kind compiled.Tlscore.Pipeline.prog in
          ( prog,
            Analysis.Synclint.run_prog
              ~dep_profiles:compiled.Tlscore.Pipeline.dep_profiles prog )
      in
      List.iter
        (fun (fd : Analysis.Synclint.finding) ->
          let what =
            match fd.Analysis.Synclint.f_iid with
            | Some iid -> begin
              match Ir.Prog.iid_info prog iid with
              | Some info -> Printf.sprintf "  (%s)" info.Ir.Prog.what
              | None -> ""
            end
            | None -> ""
          in
          Printf.printf "%s: %s%s\n" label (Analysis.Synclint.to_string fd)
            what)
        findings;
      if findings = [] then begin
        let n = List.length prog.Ir.Prog.regions in
        Printf.printf "%s: clean (%d region%s)\n" label n
          (if n = 1 then "" else "s")
      end;
      if sync_sched then
        Printf.printf "%s: sync scheduler: %s\n" label
          (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
      List.length findings)

let cmd_lint file bench input threshold mutate sync_sched =
  let total =
    match (bench, file) with
    | None, None ->
      (* No program named: lint every bundled benchmark on its reference
         input. *)
      List.fold_left
        (fun acc (w : Workloads.Workload.t) ->
          acc
          + lint_one ?mutate ~sync_sched ~label:w.name w.source w.ref_input
              threshold)
        0 Workloads.Registry.all
    | _ ->
      let source, input = resolve_program file bench input in
      lint_one ?mutate ~sync_sched ~label:(program_label file bench) source
        input threshold
  in
  if total > 0 then exit 1

(* Uniform cycle-budget override (--max-cycles): one knob for every
   simulation a command runs, so chaos sweeps can be bounded. *)
let apply_budget max_cycles cfg =
  match max_cycles with
  | None -> cfg
  | Some m -> { cfg with Tls.Config.max_cycles = m }

(* Only a mode that honors compiler synchronization (C, B) runs the
   memory-sync pass. *)
let memory_sync (cfg : Tls.Config.t) ~input ~threshold =
  if cfg.stall_compiler_sync then
    Tlscore.Pipeline.Profiled { dep_input = input; threshold }
  else Tlscore.Pipeline.No_memory_sync

let cmd_simulate file bench input threshold (mode, cfg) mutate max_cycles
    sig_buffer spec_lines fwd_queue overflow_policy sync_sched engine =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let memory_sync = memory_sync cfg ~input ~threshold in
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync ()
      in
      let code =
        match mutate with
        | None -> compiled.Tlscore.Pipeline.code
        | Some kind ->
          Printf.printf "injected IR fault: %s\n" (Faults.Irfault.kind_name kind);
          Runtime.Code.of_prog
            (apply_mutation kind compiled.Tlscore.Pipeline.prog)
      in
      (* The DESIGN §12 finite-resource knobs: unset ones keep the
         unbounded defaults, so plain `simulate` output is unchanged. *)
      let bounded =
        sig_buffer <> None || spec_lines <> None || fwd_queue <> None
      in
      let cfg =
        {
          (apply_budget max_cycles cfg) with
          Tls.Config.engine;
          overflow_policy;
          sig_buffer_entries =
            Option.value sig_buffer ~default:cfg.sig_buffer_entries;
          spec_lines_per_epoch =
            Option.value spec_lines ~default:cfg.spec_lines_per_epoch;
          fwd_queue_depth = Option.value fwd_queue ~default:cfg.fwd_queue_depth;
        }
      in
      let r = guarded (fun () -> Tls.Sim.run cfg code ~input ()) in
      let reference = Tlscore.Pipeline.original ~source in
      let seq =
        guarded (fun () ->
            Tls.Sim.run_sequential cfg
              (Runtime.Code.of_prog reference)
              ~input ~track:compiled.Tlscore.Pipeline.code.Runtime.Code.regions)
      in
      Printf.printf "mode %s\n" mode;
      if sync_sched then
        Printf.printf "sync scheduler:      %s\n"
          (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
      Printf.printf "sequential cycles:   %d\n" seq.Tls.Simstats.sq_cycles;
      Printf.printf "TLS cycles:          %d (%.2fx)\n" r.Tls.Simstats.total_cycles
        (Support.Stats.ratio
           (float_of_int seq.Tls.Simstats.sq_cycles)
           (float_of_int r.Tls.Simstats.total_cycles));
      Printf.printf "region cycles:       %d\n" r.Tls.Simstats.region_cycles;
      Printf.printf "epochs committed:    %d (squashed %d, violations %d)\n"
        r.Tls.Simstats.epochs_committed r.Tls.Simstats.epochs_squashed
        r.Tls.Simstats.violations;
      let s = r.Tls.Simstats.slots in
      Printf.printf "slots: busy %d, sync %d, fail %d, other %d (of %d)\n"
        s.Tls.Simstats.s_busy s.Tls.Simstats.s_sync s.Tls.Simstats.s_fail
        (Tls.Simstats.other s) s.Tls.Simstats.s_total;
      if bounded then begin
        let rs = r.Tls.Simstats.resources in
        Printf.printf "resource peaks:  sig-buffer %d, spec-lines %d, fwd-queue %d\n"
          r.Tls.Simstats.max_signal_buffer rs.Tls.Simstats.rs_peak_spec_lines
          rs.Tls.Simstats.rs_peak_fwd_queue;
        Printf.printf
          "resource events: sig-drops %d, spec-overflows %d (stalls %d, \
           squashes %d), bp-signals %d\n"
          rs.Tls.Simstats.rs_sig_drops rs.Tls.Simstats.rs_spec_overflows
          rs.Tls.Simstats.rs_spec_stalls rs.Tls.Simstats.rs_spec_squashes
          rs.Tls.Simstats.rs_bp_signals
      end;
      Printf.printf "output: %s\n"
        (String.concat " " (List.map string_of_int r.Tls.Simstats.output));
      if r.Tls.Simstats.output <> seq.Tls.Simstats.sq_output then begin
        prerr_endline "ERROR: TLS output differs from sequential!";
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* exec: real speculative execution on domains (DESIGN §16)            *)
(* ------------------------------------------------------------------ *)

let cmd_exec file bench input threshold (mode, cfg) sync_sched domains
    watchdog_ms max_aborts record replay injects =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync:(memory_sync cfg ~input ~threshold)
          ()
      in
      let code = compiled.Tlscore.Pipeline.code in
      let base = Specrt.default_opts cfg in
      let opts =
        {
          base with
          Specrt.domains = Option.value domains ~default:base.Specrt.domains;
          watchdog_ms;
          max_aborts;
          faults = List.map snd injects;
          replay = Option.map (read_input Specrt.read_log) replay;
        }
      in
      let r = guarded (fun () -> Specrt.run ~opts cfg code ~input) in
      (match record with
      | Some path ->
        Specrt.write_log path r.Specrt.r_events;
        Printf.printf "recorded %d events to %s\n"
          (List.length r.Specrt.r_events) path
      | None -> ());
      Printf.printf "mode %s, %d domains%s\n" mode r.Specrt.r_domains
        (if opts.Specrt.replay <> None then " (replay, serial)" else "");
      Printf.printf "epochs committed:    %d (squashed %d, violations %d)\n"
        r.Specrt.r_epochs_committed r.Specrt.r_epochs_squashed
        r.Specrt.r_violations;
      Printf.printf "region instances:    %s\n"
        (String.concat ", "
           (List.map
              (fun (rid, n) -> Printf.sprintf "%d:%d" rid n)
              r.Specrt.r_region_instances));
      Printf.printf "output: %s\n"
        (String.concat " " (List.map string_of_int r.Specrt.r_output));
      (* The acceptance bar: committed output and memory byte-identical
         to the sequential program, whatever the interleaving did. *)
      let seq_mem = Runtime.Memory.create () in
      Runtime.Memory.store_all seq_mem code.Runtime.Code.initial_stores;
      let seq_out = Runtime.Thread.run_sequential code ~input seq_mem in
      if r.Specrt.r_output <> seq_out then begin
        prerr_endline "ERROR: exec output differs from sequential!";
        exit 1
      end;
      if not (Runtime.Memory.equal seq_mem r.Specrt.r_final_memory) then begin
        prerr_endline "ERROR: exec final memory differs from sequential!";
        exit 1
      end)

(* ------------------------------------------------------------------ *)
(* analyze: static stall estimation + violation-risk prediction        *)
(* ------------------------------------------------------------------ *)

let params_of_config (cfg : Tls.Config.t) =
  {
    Analysis.Staticcost.issue_width = cfg.Tls.Config.issue_width;
    lat_mul = cfg.Tls.Config.lat_mul;
    lat_div = cfg.Tls.Config.lat_div;
    forward_latency = cfg.Tls.Config.forward_latency;
    spawn_overhead = cfg.Tls.Config.spawn_overhead;
    track_line_words =
      (if cfg.Tls.Config.word_level_tracking then None
       else Some cfg.Tls.Config.line_words);
  }

(* Relative error of a prediction against a measurement, with a floor of
   one cycle so zero-stall channels don't divide by zero. *)
let rel_err ~predicted ~measured =
  Float.abs (predicted -. measured) /. Float.max 1.0 measured

let cmd_analyze file bench input threshold (mode, cfg) sync_sched json
    validate max_cycles =
  let source, input = resolve_program file bench input in
  with_errors (fun () ->
      let compiled =
        Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold })
          ()
      in
      let prog = compiled.Tlscore.Pipeline.prog in
      (* Profile the transformed program: the estimator's trip counts must
         describe the unrolled, synchronized loops it walks (waits are the
         identity and signals no-ops under sequential semantics, so the
         sync instructions don't perturb the profile). *)
      let profile = Profiler.Runner.run prog ~input ~watch:[] in
      let cfg = apply_budget max_cycles cfg in
      let params = params_of_config cfg in
      let costs = Analysis.Staticcost.analyze params profile prog in
      (* Optional differential validation: run the same artifact through
         the simulator and put its per-channel sync-stall counters (issue
         slots, divided by the issue width to get cycles) and observed
         violations next to the predictions. *)
      let measured =
        if not validate then None
        else
          let r =
            guarded (fun () ->
                Tls.Sim.run cfg compiled.Tlscore.Pipeline.code ~input ())
          in
          Some r
      in
      let measured_stall ch =
        match measured with
        | None -> None
        | Some r ->
          Some
            (float_of_int
               (Option.value ~default:0
                  (List.assoc_opt ch r.Tls.Simstats.sync_stall_by_channel))
            /. float_of_int cfg.Tls.Config.issue_width)
      in
      let observed_violations () =
        match measured with
        | None -> []
        | Some r ->
          List.filter (fun (iid, _) -> iid >= 0)
            r.Tls.Simstats.violated_load_counts
      in
      let predicted_all =
        List.concat_map
          (fun (rc : Analysis.Staticcost.region_cost) ->
            rc.Analysis.Staticcost.rc_violations)
          costs
      in
      (* Acceptance gate of the predictor: every simulator-observed
         violated load must be in the predicted superset. *)
      let missed =
        List.filter
          (fun (iid, _) -> not (List.mem iid predicted_all))
          (observed_violations ())
      in
      if json then begin
        let b = Buffer.create 4096 in
        Buffer.add_string b "{\n";
        Buffer.add_string b
          (Printf.sprintf
             "  \"mode\": %S, \"issue_width\": %d, \"forward_latency\": %d, \
              \"spawn_overhead\": %d,\n"
             mode cfg.Tls.Config.issue_width cfg.Tls.Config.forward_latency
             cfg.Tls.Config.spawn_overhead);
        if sync_sched then
          Buffer.add_string b
            (Printf.sprintf "  \"sync_sched\": { %s },\n"
               (let s = compiled.Tlscore.Pipeline.sched_stats in
                Printf.sprintf
                  "\"waits_sunk\": %d, \"mem_sunk\": %d, \
                   \"signals_hoisted\": %d, \"signals_inlined\": %d, \
                   \"slots\": %d"
                  s.Analysis.Syncsched.ss_waits_sunk
                  s.Analysis.Syncsched.ss_mem_sunk
                  s.Analysis.Syncsched.ss_signals_hoisted
                  s.Analysis.Syncsched.ss_signals_inlined
                  s.Analysis.Syncsched.ss_slots));
        Buffer.add_string b "  \"regions\": [\n";
        List.iteri
          (fun i (rc : Analysis.Staticcost.region_cost) ->
            if i > 0 then Buffer.add_string b ",\n";
            Buffer.add_string b
              (Printf.sprintf
                 "    { \"id\": %d, \"func\": %S, \"header\": %d, \
                  \"epochs\": %d,\n      \"channels\": ["
                 rc.Analysis.Staticcost.rc_id rc.Analysis.Staticcost.rc_func
                 rc.Analysis.Staticcost.rc_header
                 rc.Analysis.Staticcost.rc_epochs);
            List.iteri
              (fun j (cc : Analysis.Staticcost.channel_cost) ->
                if j > 0 then Buffer.add_string b ",";
                Buffer.add_string b
                  (Printf.sprintf
                     "\n        { \"channel\": %d, \"kind\": %S, \
                      \"producer\": %.2f, \"consumer\": %.2f, \
                      \"stall\": %.2f, \"total\": %.2f"
                     cc.Analysis.Staticcost.cc_channel
                     (Analysis.Staticcost.kind_string
                        cc.Analysis.Staticcost.cc_kind)
                     cc.Analysis.Staticcost.cc_producer
                     cc.Analysis.Staticcost.cc_consumer
                     cc.Analysis.Staticcost.cc_stall
                     cc.Analysis.Staticcost.cc_total);
                (match measured_stall cc.Analysis.Staticcost.cc_channel with
                | Some m ->
                  Buffer.add_string b
                    (Printf.sprintf
                       ", \"measured\": %.2f, \"rel_err\": %.3f" m
                       (rel_err
                          ~predicted:cc.Analysis.Staticcost.cc_total
                          ~measured:m))
                | None -> ());
                Buffer.add_string b " }")
              rc.Analysis.Staticcost.rc_channels;
            Buffer.add_string b
              (Printf.sprintf "\n      ],\n      \"predicted_violations\": [%s] }"
                 (String.concat ", "
                    (List.map string_of_int
                       rc.Analysis.Staticcost.rc_violations))))
          costs;
        Buffer.add_string b "\n  ]";
        (match measured with
        | None -> ()
        | Some r ->
          Buffer.add_string b
            (Printf.sprintf
               ",\n  \"observed_violations\": [%s], \"sim_sync_slots\": %d, \
                \"violation_superset_ok\": %b"
               (String.concat ", "
                  (List.map
                     (fun (iid, _) -> string_of_int iid)
                     (observed_violations ())))
               r.Tls.Simstats.slots.Tls.Simstats.s_sync (missed = [])));
        Buffer.add_string b "\n}\n";
        print_string (Buffer.contents b);
        if missed <> [] then exit 1
      end
      else begin
        Printf.printf
          "%s: static cost model (mode %s: issue %d, forward %d, spawn %d)\n"
          (program_label file bench) mode
          cfg.Tls.Config.issue_width cfg.Tls.Config.forward_latency
          cfg.Tls.Config.spawn_overhead;
        if sync_sched then
          Printf.printf "sync scheduler: %s\n"
            (Analysis.Syncsched.to_string compiled.Tlscore.Pipeline.sched_stats);
        List.iter
          (fun (rc : Analysis.Staticcost.region_cost) ->
            Printf.printf "region %d %s/L%d: %d epochs\n"
              rc.Analysis.Staticcost.rc_id rc.Analysis.Staticcost.rc_func
              rc.Analysis.Staticcost.rc_header rc.Analysis.Staticcost.rc_epochs;
            List.iter
              (fun (cc : Analysis.Staticcost.channel_cost) ->
                Printf.printf
                  "  ch %-3d %-6s producer %7.1f  consumer %7.1f  \
                   stall/epoch %7.1f  total %9.1f"
                  cc.Analysis.Staticcost.cc_channel
                  (Analysis.Staticcost.kind_string
                     cc.Analysis.Staticcost.cc_kind)
                  cc.Analysis.Staticcost.cc_producer
                  cc.Analysis.Staticcost.cc_consumer
                  cc.Analysis.Staticcost.cc_stall
                  cc.Analysis.Staticcost.cc_total;
                (match measured_stall cc.Analysis.Staticcost.cc_channel with
                | Some m ->
                  Printf.printf "  measured %9.1f  rel-err %.3f" m
                    (rel_err
                       ~predicted:cc.Analysis.Staticcost.cc_total ~measured:m)
                | None -> ());
                print_newline ())
              rc.Analysis.Staticcost.rc_channels;
            let vs = rc.Analysis.Staticcost.rc_violations in
            Printf.printf "  predicted violations: %d load%s%s\n"
              (List.length vs)
              (if List.length vs = 1 then "" else "s")
              (if vs = [] then ""
               else
                 " ("
                 ^ String.concat " "
                     (List.map (Printf.sprintf "i%d") vs)
                 ^ ")"))
          costs;
        match measured with
        | None -> ()
        | Some r ->
          let observed = observed_violations () in
          let sentinel =
            List.fold_left
              (fun acc (iid, n) -> if iid < 0 then acc + n else acc)
              0 r.Tls.Simstats.violated_load_counts
          in
          Printf.printf
            "simulator: %d violations (%d distinct loads, %d unattributed), \
             %d sync slots\n"
            r.Tls.Simstats.violations (List.length observed) sentinel
            r.Tls.Simstats.slots.Tls.Simstats.s_sync;
          if missed = [] then
            Printf.printf
              "violation superset: ok (%d predicted >= %d observed)\n"
              (List.length predicted_all) (List.length observed)
          else begin
            Printf.printf "violation superset: FAILED — observed but not predicted:%s\n"
              (String.concat ""
                 (List.map (fun (iid, _) -> Printf.sprintf " i%d" iid) missed));
            exit 1
          end
      end)

(* ------------------------------------------------------------------ *)
(* chaos: the fault x workload x mode resilience matrix                 *)
(* ------------------------------------------------------------------ *)

let program_of_workload (w : Workloads.Workload.t) =
  {
    Faults.Chaos.p_name = w.Workloads.Workload.name;
    p_source = w.Workloads.Workload.source;
    p_train = w.Workloads.Workload.train_input;
    p_ref = w.Workloads.Workload.ref_input;
    p_select_main = false;
  }

(* Runtime-layer chaos: the speculative executor's fault catalog.  Runs
   serially (each cell already spawns its own worker domains) over
   bundled benchmarks; the rendered table is byte-deterministic despite
   real concurrency, because outcomes classify only committed state and
   typed errors. *)
let cmd_chaos_exec benches =
  with_errors (fun () ->
      let cells =
        guarded (fun () ->
            Faults.Chaosexec.run_matrix ~log:print_endline
              (List.map program_of_workload benches))
      in
      print_newline ();
      print_string (Faults.Chaosexec.render_table cells);
      if Faults.Chaosexec.count_failed cells > 0 then exit 1)

(* Serve-layer chaos works through the service request path, so it runs
   over bundled benchmark names (fuzz programs would need the
   force-select-main hook the request format deliberately lacks). *)
let cmd_chaos_serve benches jobs =
  let programs = List.map (fun (w : Workloads.Workload.t) -> w.name) benches in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrvcc-serve-chaos.%d" (Unix.getpid ()))
  in
  Serve.Cache.remove_tree dir;
  let cells =
    Fun.protect
      ~finally:(fun () -> Serve.Cache.remove_tree dir)
      (fun () ->
        with_errors (fun () ->
            Serve.Chaoserve.run ~log:print_endline ~jobs ~cache_dir:dir
              ~programs ()))
  in
  print_newline ();
  print_string (Serve.Chaoserve.render_table cells);
  if Serve.Chaoserve.count_failed cells > 0 then exit 1

let cmd_chaos benches modes fuzz seed jobs max_cycles capacity timeout
    retries sync_sched =
  let programs =
    List.map program_of_workload benches
    @ Faults.Chaos.fuzz_programs ~count:fuzz ~seed
  in
  if programs = [] then begin
    prerr_endline "nothing to run: pass --bench all, --bench NAME[,NAME...], and/or --fuzz N";
    exit 2
  end;
  let modes = List.map (fun (m, cfg) -> (m, apply_budget max_cycles cfg)) modes in
  let pool = Harness.Jobs.create ?timeout ~retries ~jobs () in
  with_errors (fun () ->
      if capacity then begin
        let cells =
          guarded (fun () ->
              Faults.Chaos.run_capacity ~log:print_endline
                ~map:pool.Harness.Jobs.map ~sync_sched ~modes programs)
        in
        print_newline ();
        print_string (Faults.Chaos.render_capacity_table cells);
        if Faults.Chaos.count_capacity_failed cells > 0 then exit 1
      end
      else begin
        let cells =
          guarded (fun () ->
              Faults.Chaos.run_matrix ~log:print_endline
                ~map:pool.Harness.Jobs.map ~sync_sched ~modes
                ~faults:Faults.Fault.catalog programs)
        in
        print_newline ();
        print_string (Faults.Chaos.render_table cells);
        if Faults.Chaos.count_failed cells > 0 then exit 1
      end)

(* ------------------------------------------------------------------ *)
(* serve: persistent compile service over JSONL requests               *)
(* ------------------------------------------------------------------ *)

let cmd_serve file jobs out retries cache_dir no_cache queue rate deadline
    no_timing =
  let text =
    match file with
    | Some path -> read_file path
    | None -> In_channel.input_all stdin
  in
  match Serve.Request.parse_all text with
  | Error msgs ->
    List.iter prerr_endline msgs;
    exit 2
  | Ok [] ->
    prerr_endline "no requests (give a JSONL file or pipe requests to stdin)";
    exit 2
  | Ok requests ->
    let cfg =
      {
        Serve.Service.sc_cache_dir =
          (if no_cache then None else Some cache_dir);
        sc_queue = queue;
        sc_rate = rate;
        sc_jobs = jobs;
        sc_deadline_s = deadline;
        sc_retries = retries;
        sc_timing = not no_timing;
      }
    in
    let o = Serve.Service.run cfg requests in
    let st = o.Serve.Service.so_stats in
    List.iter
      (fun q -> Printf.eprintf "quarantined corrupt cache entry %s\n" q)
      st.Serve.Service.st_quarantined;
    let body =
      String.concat ""
        (List.map
           (fun r -> Serve.Request.response_line r ^ "\n")
           o.Serve.Service.so_responses)
    in
    (match out with
    | None -> print_string body
    | Some path ->
      (* Atomic: a kill mid-write never leaves a truncated response
         file. *)
      Serve.Cache.write_file_atomic
        ~tmp:(Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()))
        path body;
      Printf.printf "wrote %s (%d responses)\n" path
        (List.length o.Serve.Service.so_responses));
    Printf.eprintf
      "serve: %d requests | %d ok | %d degraded | %d shed | %d deadline | %d \
       error | cache %d hit / %d miss / %d stale\n"
      st.Serve.Service.st_requests st.Serve.Service.st_ok
      st.Serve.Service.st_degraded st.Serve.Service.st_shed
      st.Serve.Service.st_deadline st.Serve.Service.st_error
      st.Serve.Service.st_cache_hits st.Serve.Service.st_cache_misses
      st.Serve.Service.st_cache_stale;
    exit (Serve.Service.exit_code st)

open Cmdliner

(* Every flag value goes through a converter, so a bad value is a parse
   error: exit 2 with a one-line message before the command runs.  Names
   match exactly (Cli.exact), never by abbreviation. *)

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"The mini-C program (or use --bench).")

let workload_conv =
  Cli.exact
    (List.map
       (fun (w : Workloads.Workload.t) -> (w.name, w))
       Workloads.Registry.all)

let bench_arg =
  Arg.(
    value
    & opt (some workload_conv) None
    & info [ "bench" ] ~docv:"NAME"
        ~doc:"Use a bundled benchmark (on its reference input), not FILE.")

(* The chaos matrices take [all] or a comma-separated list of names;
   [""] is neither. *)
let benches_conv =
  let names = Cli.list workload_conv in
  Arg.conv
    ( (fun s ->
        if String.equal s "all" then Ok Workloads.Registry.all
        else Arg.conv_parser names s),
      Arg.conv_printer names )

let benches_info = Arg.info [ "bench" ] ~docv:"all|NAME[,NAME...]"

let required_benches_arg =
  Arg.(required & opt (some benches_conv) None & benches_info)

(* [--in ""] is the empty input. *)
let input_conv =
  let ints = Cli.list Arg.int in
  Arg.conv
    ( (function "" -> Ok [] | s -> Arg.conv_parser ints s),
      Arg.conv_printer ints )

let input_arg =
  Arg.(
    value
    & opt (some input_conv) None
    & info [ "in" ] ~docv:"N,N,..."
        ~doc:"The program input (default: a benchmark's reference input).")

let threshold_arg =
  Arg.(
    value & opt Cli.fraction Tlscore.Pipeline.default_threshold
    & info [ "threshold" ] ~docv:"FRACTION"
        ~doc:
          "Synchronize a memory dependence that occurs in at least this \
           fraction of epochs.")

let mode_conv =
  Cli.exact (List.map (fun ((m, _) as mode) -> (m, mode)) Tls.Config.modes)

let mode_arg =
  Arg.(
    value
    & opt mode_conv ("C", Tls.Config.c_mode)
    & info [ "mode" ]
        ~docv:(String.concat "|" (List.map fst Tls.Config.modes))
        ~doc:"The machine configuration, one of the paper's bars.")

let mutate_arg =
  Arg.(
    value
    & opt (some (Cli.exact Faults.Irfault.kinds)) None
    & info [ "mutate" ] ~docv:"FAULT"
        ~doc:"Inject an IR fault into the compiled program.")

let modes_arg =
  Arg.(
    value
    & opt (Cli.list mode_conv) Faults.Chaos.default_modes
    & info [ "modes" ] ~docv:"M,M,...")

let fuzz_arg =
  Arg.(value & opt (Cli.int_at_least 0) 0 & info [ "fuzz" ] ~docv:"COUNT")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED")

let jobs_arg ~doc =
  Arg.(value & opt (Cli.int_at_least 1) 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")

let max_cycles_arg =
  let doc = "Override the simulator cycle budget for every simulation run." in
  Arg.(
    value
    & opt (some (Cli.int_at_least 1)) None
    & info [ "max-cycles" ] ~doc ~docv:"N")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let sync_sched_arg =
  Arg.(
    value & flag
    & info [ "sync-sched" ]
        ~doc:
          "Run the sync scheduler after the sync passes: hoist each \
           store+signal pair toward the stored value's definition and sink \
           each wait toward its first use, guarded by epoch dominance and \
           points-to facts.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:
          "After the static analysis, run the simulator on the same artifact \
           and report each channel's measured sync stall with the relative \
           error of the prediction, plus the violation superset check \
           (exit 1 if a simulator-observed violation was not predicted).")

let capacity_arg =
  Arg.(
    value & flag
    & info [ "capacity" ]
        ~doc:
          "Run the finite-resource capacity sweep instead of the fault \
           matrix: halve each resource limit from its observed peak until \
           degradation triggers, then classify the run.")

let timeout_arg =
  let doc =
    "Bound each matrix job's wall time to $(docv) seconds; a job past its \
     whole --retries schedule fails with Retries_exhausted naming its \
     input index (exit 9)."
  in
  Arg.(
    value
    & opt (some Cli.positive_float) None
    & info [ "timeout" ] ~doc ~docv:"SECONDS")

let retries_arg ~doc =
  Arg.(value & opt (Cli.int_at_least 0) 1 & info [ "retries" ] ~docv:"N" ~doc)

let sig_buffer_arg =
  Arg.(
    value
    & opt (some (Cli.int_at_least 0)) None
    & info [ "sig-buffer" ] ~docv:"N"
        ~doc:
          "Bound the signal address buffer to $(docv) entries; overflowing \
           forwards degrade to the violation-protected NULL path.")

let spec_lines_arg =
  Arg.(
    value
    & opt (some (Cli.int_at_least 0)) None
    & info [ "spec-lines" ] ~docv:"N"
        ~doc:
          "Bound each epoch's speculative state to $(docv) cache lines; \
           overflow follows --overflow-policy (the oldest epoch is exempt).")

let fwd_queue_arg =
  Arg.(
    value
    & opt (some (Cli.int_at_least 0)) None
    & info [ "fwd-queue" ] ~docv:"N"
        ~doc:
          "Bound the per-epoch forwarding queue to $(docv) in-flight \
           channels; a full queue backpressures the producer.")

let overflow_policy_arg =
  Arg.(
    value
    & opt
        (Cli.exact
           [
             ("stall", Tls.Config.Overflow_stall);
             ("squash", Tls.Config.Overflow_squash);
           ])
        Tls.Config.Overflow_stall
    & info [ "overflow-policy" ] ~docv:"stall|squash"
        ~doc:
          "What a --spec-lines overflow does: stall the epoch until it is \
           oldest, or squash and restart it serialized.")

let engine_arg =
  Arg.(
    value
    & opt
        (Cli.exact
           [
             ("ref", Tls.Config.Engine_ref);
             ("event", Tls.Config.Engine_event);
           ])
        Tls.Config.Engine_event
    & info [ "engine" ] ~docv:"ref|event"
        ~doc:
          "Which simulator core runs: the reference cycle-stepped engine or \
           the event-driven engine (default). Both produce byte-identical \
           results; $(b,ref) exists as the oracle the differential suite \
           locks the event core against.")

let domains_arg =
  Arg.(
    value
    & opt (some (Cli.int_at_least 1)) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the simulated machine's processor \
           count; 1 = serial in-order execution).")

let watchdog_ms_arg =
  Arg.(
    value
    & opt (Cli.int_at_least 1) 10_000
    & info [ "watchdog-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock watchdog: no commit, squash, or sequential progress \
           for this long is a hang, reported as the typed Specrt_stuck \
           (exit 10).")

let max_aborts_arg =
  Arg.(
    value
    & opt (Cli.int_at_least 0) 64
    & info [ "max-aborts" ] ~docv:"N"
        ~doc:
          "Per-epoch squash budget; exceeding it raises the typed \
           Abort_exhausted (exit 11).")

let record_arg =
  Arg.(
    value & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Write the commit/violation/squash/signal event log to FILE \
           (JSONL, one event per line).")

let replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Replay a recorded event log: run serially in epoch order, \
           forcing the recorded squashes and violations at their commit \
           points, so a nondeterministic failure reproduces \
           deterministically.  A truncated FILE replays its prefix.")

(* Runtime-fault specs, e.g. delay-commit:0:5000, yield:1:4,
   drop-wakeup:2:0, crash:1, crash:1:persistent.  The first number is
   always the epoch index targeted (within the first region instance).
   A parsed spec keeps its text, which is how it prints. *)
let exec_fault_conv =
  let fault s =
    let n = int_of_string in
    match String.split_on_char ':' s with
    | [ "delay-commit"; e; ms ] ->
      Specrt.Delay_commit { epoch = n e; ms = n ms }
    | [ "yield"; e; k ] -> Specrt.Yield_steps { epoch = n e; every = n k }
    | [ "drop-wakeup"; e; ch ] ->
      Specrt.Drop_wakeup { epoch = n e; channel = n ch }
    | [ "crash"; e ] -> Specrt.Crash_epoch { epoch = n e; persistent = false }
    | [ "crash"; e; "persistent" ] ->
      Specrt.Crash_epoch { epoch = n e; persistent = true }
    | _ -> failwith s
  in
  Arg.conv
    ( (fun s ->
        match fault s with
        | f -> Ok (s, f)
        | exception Failure _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "invalid value '%s', expected delay-commit:EPOCH:MS | \
                  yield:EPOCH:EVERY | drop-wakeup:EPOCH:CHANNEL | \
                  crash:EPOCH[:persistent]"
                 s))),
      fun ppf (s, _) -> Format.pp_print_string ppf s )

let inject_arg =
  Arg.(
    value & opt_all exec_fault_conv []
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Inject a runtime fault (repeatable): \
           $(b,delay-commit:EPOCH:MS), $(b,yield:EPOCH:EVERY), \
           $(b,drop-wakeup:EPOCH:CHANNEL), $(b,crash:EPOCH[:persistent]).")

let cache_dir_arg =
  Arg.(
    value & opt string "_mrvcc_cache"
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Artifact cache directory (created if missing).")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the artifact cache.")

let queue_arg =
  Arg.(
    value
    & opt (Cli.int_at_least 1) 8
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Admission queue capacity; arrivals past it are shed with a typed \
           rejection (exit 8).")

let rate_arg =
  Arg.(
    value
    & opt (Cli.int_at_least 1) 2
    & info [ "rate" ] ~docv:"N" ~doc:"Requests dispatched per admission tick.")

let deadline_arg =
  Arg.(
    value
    & opt Cli.positive_float 10.0
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "Default per-request wall deadline; a request past its whole \
           retry schedule resolves to a typed deadline response (exit 9).")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the response lines to $(docv) atomically, not to stdout.")

let no_timing_arg =
  Arg.(
    value & flag
    & info [ "no-timing" ]
        ~doc:
          "Omit wall_ns from responses, making the response stream \
           byte-deterministic (used by the test fixtures).")

let chaos_cmd =
  let matrix =
    Term.(
      const cmd_chaos
      $ Arg.(value & opt benches_conv [] & benches_info)
      $ modes_arg $ fuzz_arg $ seed_arg
      $ jobs_arg
          ~doc:
            "Run independent matrix cells on $(docv) domains. Output is \
             byte-identical to a serial run."
      $ max_cycles_arg $ capacity_arg $ timeout_arg
      $ retries_arg
          ~doc:
            "Extra attempts per matrix job under --timeout; attempt k runs \
             under timeout*2^k."
      $ sync_sched_arg)
  in
  Cmd.group ~default:matrix
    (Cmd.info "chaos"
       ~doc:
         "Run the fault x workload x mode resilience matrix on the \
          simulator (or a subcommand's matrix).")
    [
      Cmd.v
        (Cmd.info "exec"
           ~doc:
             "Run the runtime-layer fault matrix on the speculative executor.")
        Term.(const cmd_chaos_exec $ required_benches_arg);
      Cmd.v
        (Cmd.info "serve"
           ~doc:
             "Run the service-layer fault matrix through the compile service.")
        Term.(
          const cmd_chaos_serve $ required_benches_arg
          $ jobs_arg ~doc:"Worker domains of the service under test.");
    ]

let serve_cmd =
  let file =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"The JSONL requests (default: stdin).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Answer JSONL compile requests from FILE or stdin.")
    Term.(
      const cmd_serve $ file
      $ jobs_arg ~doc:"Worker domains for the requests of one tick."
      $ out_arg
      $ retries_arg
          ~doc:"Extra attempts per request; attempt k runs under deadline*2^k."
      $ cache_dir_arg $ no_cache_arg $ queue_arg $ rate_arg $ deadline_arg
      $ no_timing_arg)

let cmd =
  Cmd.group
    (Cmd.info "mrvcc" ~doc:"mini-C TLS compiler and simulator driver")
    [
      Cmd.v
        (Cmd.info "dump-ir" ~doc:"Print the lowered IR.")
        Term.(const cmd_dump_ir $ file_arg $ bench_arg);
      Cmd.v
        (Cmd.info "run" ~doc:"Run the program sequentially; print its output.")
        Term.(const cmd_run $ file_arg $ bench_arg $ input_arg);
      Cmd.v
        (Cmd.info "profile" ~doc:"Print the loop and dependence profile.")
        Term.(
          const cmd_profile $ file_arg $ bench_arg $ input_arg $ threshold_arg);
      Cmd.v
        (Cmd.info "depgraph"
           ~doc:"Print each selected region's dependence graph as DOT.")
        Term.(
          const cmd_depgraph $ file_arg $ bench_arg $ input_arg
          $ threshold_arg);
      Cmd.v
        (Cmd.info "compile"
           ~doc:"Print the regions, the sync insertion and the transformed IR.")
        Term.(
          const cmd_compile $ file_arg $ bench_arg $ input_arg $ threshold_arg
          $ sync_sched_arg);
      Cmd.v
        (Cmd.info "lint"
           ~doc:
             "Check sync placement statically (every bundled benchmark when \
              no program is named); exit 1 on findings.")
        Term.(
          const cmd_lint $ file_arg $ bench_arg $ input_arg $ threshold_arg
          $ mutate_arg $ sync_sched_arg);
      Cmd.v
        (Cmd.info "simulate"
           ~doc:"Run the TLS simulator and check it against sequential.")
        Term.(
          const cmd_simulate $ file_arg $ bench_arg $ input_arg $ threshold_arg
          $ mode_arg $ mutate_arg $ max_cycles_arg $ sig_buffer_arg
          $ spec_lines_arg $ fwd_queue_arg $ overflow_policy_arg
          $ sync_sched_arg $ engine_arg);
      Cmd.v
        (Cmd.info "exec"
           ~doc:
             "Run the compiled epochs speculatively on domains and check them \
              against sequential.")
        Term.(
          const cmd_exec $ file_arg $ bench_arg $ input_arg $ threshold_arg
          $ mode_arg $ sync_sched_arg $ domains_arg $ watchdog_ms_arg
          $ max_aborts_arg $ record_arg $ replay_arg $ inject_arg);
      Cmd.v
        (Cmd.info "analyze"
           ~doc:"Estimate sync stalls and violation risk statically.")
        Term.(
          const cmd_analyze $ file_arg $ bench_arg $ input_arg $ threshold_arg
          $ mode_arg $ sync_sched_arg $ json_arg $ validate_arg
          $ max_cycles_arg);
      chaos_cmd;
      serve_cmd;
    ]

(* A command-line error exits 2 with its one-line message (Cli.eval). *)
let () =
  let code, text = Cli.eval cmd in
  prerr_string text;
  exit code

(* Fault injection, watchdog, and differential chaos.

   Three layers under test: profile faults absorbed by the architecture,
   IR faults that synclint predicts statically and the simulator must
   either absorb or detect dynamically, and simulator faults against the
   forwarding path.  The chaos harness ties them together: for every
   (program, mode, fault) cell, absorbable faults must keep sequential
   equivalence and detectable ones must end in a typed error, never a
   hang. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Serial chain through global [g]: one static-address memory channel,
   long producer latency (every epoch blocks its consumer's wait). *)
let chain_src =
  "int g;\n\
   int out[64];\n\
   int work(int x) { int j; int t; t = x; for (j = 0; j < 10 + x % 7; j = \
   j + 1) { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
   void main() {\n\
  \  int i; int v;\n\
  \  for (i = 0; i < 40; i = i + 1) {\n\
  \    v = g;\n\
  \    out[i % 64] = work(v + i);\n\
  \    g = v + 1;\n\
  \  }\n\
  \  print(g);\n\
  \  print(out[5]);\n\
   }"

(* Pointer-varying group: forwarded addresses sometimes miss. *)
let aliasing_src =
  "int slots[32];\n\
   int sel[64];\n\
   int work(int x) { int j; int t; t = x; for (j = 0; j < 12; j = j + 1) { \
   t = t + ((t << 1) ^ j) % 53; } return t; }\n\
   void main() {\n\
  \  int i; int k; int v;\n\
  \  for (i = 0; i < 48; i = i + 1) {\n\
  \    k = sel[i % 64] % 4;\n\
  \    v = slots[k * 8];\n\
  \    v = v + work(i);\n\
  \    slots[k * 8] = v;\n\
  \  }\n\
  \  print(slots[0] + slots[8] + slots[16] + slots[24]);\n\
   }"

let train_input = Array.init 64 (fun i -> i * 7)
let ref_input = Array.init 64 (fun i -> (i * 5) + 3)

let seq_output src input =
  let prog = Ir.Lower.compile_source src in
  let code = Runtime.Code.of_prog prog in
  let mem = Runtime.Memory.create () in
  Runtime.Thread.run_sequential code ~input mem

let compile_synced ?profile_fault src input =
  Tlscore.Pipeline.compile ?profile_fault ~lint:false ~source:src
    ~profile_input:input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled { dep_input = input; threshold = 0.05 })
    ()

let mutate_exn kind prog =
  match Faults.Irfault.apply kind prog with
  | Some a -> a
  | None ->
    Alcotest.fail ("fault not applicable: " ^ Faults.Irfault.kind_name kind)

let run_tls cfg code input = Tls.Sim.run cfg code ~input ()

(* ------------------------------------------------------------------ *)
(* Program generator                                                   *)
(* ------------------------------------------------------------------ *)

let proggen_deterministic () =
  let s1, i1 = Faults.Proggen.generate ~seed:5 in
  let s2, i2 = Faults.Proggen.generate ~seed:5 in
  Alcotest.(check string) "same source" s1 s2;
  Alcotest.(check (array int)) "same input" i1 i2;
  let s3, _ = Faults.Proggen.generate ~seed:6 in
  check_bool "different seeds differ" true (not (String.equal s1 s3))

let proggen_runs_sequentially () =
  (* Every generated program must terminate and print. *)
  for seed = 0 to 9 do
    let src, input = Faults.Proggen.generate ~seed in
    let out = seq_output src input in
    check_int (Printf.sprintf "seed %d prints 5 values" seed) 5
      (List.length out)
  done

(* ------------------------------------------------------------------ *)
(* Profile faults                                                      *)
(* ------------------------------------------------------------------ *)

let arcs dp =
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) dp.Profiler.Profile.dep_epochs []
  |> List.sort compare

let proffault_pure_and_deterministic () =
  let compiled = compile_synced chain_src [||] in
  match compiled.Tlscore.Pipeline.dep_profiles with
  | [] -> Alcotest.fail "chain program produced no dependence profile"
  | (_, dp) :: _ ->
    let before = arcs dp in
    check_bool "profile has arcs" true (before <> []);
    List.iter
      (fun f ->
        let a = Faults.Proffault.apply f dp in
        let b = Faults.Proffault.apply f dp in
        Alcotest.(check bool)
          (Faults.Proffault.name f ^ " deterministic")
          true
          (arcs a = arcs b);
        Alcotest.(check bool)
          (Faults.Proffault.name f ^ " leaves original intact")
          true (arcs dp = before))
      [
        Faults.Proffault.Drop_arcs { seed = 11 };
        Faults.Proffault.Duplicate_arcs { seed = 12 };
        Faults.Proffault.Shuffle_arcs { seed = 13 };
      ]

let profile_faults_absorbed () =
  let expected = seq_output chain_src [||] in
  List.iter
    (fun f ->
      let compiled =
        compile_synced ~profile_fault:(Faults.Proffault.apply f) chain_src [||]
      in
      let r = run_tls Tls.Config.c_mode compiled.Tlscore.Pipeline.code [||] in
      Alcotest.(check (list int))
        (Faults.Proffault.name f ^ " output")
        expected r.Tls.Simstats.output)
    [
      Faults.Proffault.Drop_arcs { seed = 11 };
      Faults.Proffault.Duplicate_arcs { seed = 12 };
      Faults.Proffault.Shuffle_arcs { seed = 13 };
    ]

let stale_training_absorbed () =
  (* Profile on train, run on ref: sync placement is stale but execution
     must stay sequentially equivalent. *)
  let compiled = compile_synced aliasing_src train_input in
  let expected = seq_output aliasing_src ref_input in
  let r =
    run_tls Tls.Config.c_mode compiled.Tlscore.Pipeline.code ref_input
  in
  Alcotest.(check (list int)) "stale-train output" expected
    r.Tls.Simstats.output

(* ------------------------------------------------------------------ *)
(* Detectable faults: typed errors, never hangs                        *)
(* ------------------------------------------------------------------ *)

(* Satellite: the receive-side Deadlock path.  Dropping every signal of
   the chain's memory channel leaves each consumer waiting on a channel
   its committed predecessor never signaled. *)
let dropped_signal_deadlocks () =
  let compiled = compile_synced chain_src [||] in
  let applied = mutate_exn Faults.Irfault.Drop_signal compiled.Tlscore.Pipeline.prog in
  check_bool "mutated a memory channel" false applied.Faults.Irfault.scalar;
  let code = Runtime.Code.of_prog applied.Faults.Irfault.prog in
  match run_tls Tls.Config.c_mode code [||] with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Tls.Sim.Deadlock msg ->
    check_bool "deadlock names a channel" true
      (String.length msg > 0)

let dropped_wait_trips_protocol_check () =
  let compiled = compile_synced chain_src [||] in
  let applied = mutate_exn Faults.Irfault.Drop_wait compiled.Tlscore.Pipeline.prog in
  let code = Runtime.Code.of_prog applied.Faults.Irfault.prog in
  match run_tls Tls.Config.c_mode code [||] with
  | _ -> Alcotest.fail "expected Stuck (Missing_wait)"
  | exception Tls.Sim.Stuck d -> begin
    match d.Tls.Sim.sd_reason with
    | Tls.Sim.Missing_wait { channel; _ } ->
      check_int "protocol check names the dropped channel"
        applied.Faults.Irfault.channel channel
    | Tls.Sim.No_progress _ ->
      Alcotest.fail "expected Missing_wait, got No_progress"
  end

(* Both engines run the protocol check, and only while
   [filter_useless_sync] is off: the filter legitimately elides waits,
   so under B+ the unwaited load falls back to a violation-protected
   speculative load and the run stays correct. *)
let dropped_wait_check_yields_to_filtering () =
  let compiled = compile_synced chain_src [||] in
  let applied = mutate_exn Faults.Irfault.Drop_wait compiled.Tlscore.Pipeline.prog in
  let code = Runtime.Code.of_prog applied.Faults.Irfault.prog in
  let expected = seq_output chain_src [||] in
  List.iter
    (fun (engine_name, engine) ->
      let with_engine cfg = { cfg with Tls.Config.engine } in
      (match run_tls (with_engine Tls.Config.c_mode) code [||] with
      | _ -> Alcotest.fail (engine_name ^ ": expected Stuck (Missing_wait)")
      | exception Tls.Sim.Stuck d -> begin
        match d.Tls.Sim.sd_reason with
        | Tls.Sim.Missing_wait { channel; _ } ->
          check_int
            (engine_name ^ ": protocol check names the dropped channel")
            applied.Faults.Irfault.channel channel
        | Tls.Sim.No_progress _ ->
          Alcotest.fail (engine_name ^ ": expected Missing_wait, got No_progress")
      end);
      let r = run_tls (with_engine Tls.Config.bplus_mode) code [||] in
      Alcotest.(check (list int)) (engine_name ^ ": B+ output") expected
        r.Tls.Simstats.output)
    [ ("ref", Tls.Config.Engine_ref); ("event", Tls.Config.Engine_event) ]

let dropped_wakeup_trips_watchdog () =
  let compiled = compile_synced chain_src [||] in
  let cfg =
    {
      Tls.Config.c_mode with
      Tls.Config.sim_faults = [ Tls.Config.Drop_wakeup 0 ];
      watchdog_window = 4_000;
    }
  in
  match run_tls cfg compiled.Tlscore.Pipeline.code [||] with
  | _ -> Alcotest.fail "expected Stuck (No_progress)"
  | exception Tls.Sim.Stuck d -> begin
    match d.Tls.Sim.sd_reason with
    | Tls.Sim.No_progress { window } ->
      check_int "watchdog window" 4_000 window;
      check_bool "diagnostic lists in-flight epochs" true
        (d.Tls.Sim.sd_epochs <> []);
      check_bool "some epoch is blocked" true
        (List.exists
           (fun (e : Tls.Sim.epoch_diag) -> e.Tls.Sim.ed_blocked)
           d.Tls.Sim.sd_epochs);
      check_bool "describe is one line" true
        (let s = Tls.Sim.describe_stuck d in
         String.length s > 0 && not (String.contains s '\n'))
    | Tls.Sim.Missing_wait _ ->
      Alcotest.fail "expected No_progress, got Missing_wait"
  end

(* The watchdog fires iff the machine stalls for strictly more than
   [watchdog_window] cycles: the check is [cycle - last_progress >
   window], tested before each TLS cycle.  Bounded stalls (a delayed
   signal has a known wake time) are fast-forwarded past and thus
   invisible; only an unbounded stall — here a dropped wakeup — lets
   the stall counter grow.  Pin the boundary cycle-exactly: if the last
   progress before the wedge is at cycle P (a property of the program
   and fault, not of the window), the diagnostic must report sd_cycle =
   P + window + 1.  Running at window-1, window, and window+1 must
   yield firing cycles exactly one apart with the same recovered P —
   i.e. a stall of exactly [window] cycles never fires, and the
   (window+1)-th stalled cycle always does. *)
let watchdog_boundary_is_exact () =
  let compiled = compile_synced chain_src [||] in
  let fire_cycle window =
    let cfg =
      {
        Tls.Config.c_mode with
        Tls.Config.sim_faults = [ Tls.Config.Drop_wakeup 0 ];
        watchdog_window = window;
      }
    in
    match run_tls cfg compiled.Tlscore.Pipeline.code [||] with
    | _ -> Alcotest.fail "expected Stuck (No_progress)"
    | exception Tls.Sim.Stuck d -> begin
      match d.Tls.Sim.sd_reason with
      | Tls.Sim.No_progress { window = reported } ->
        check_int "diagnostic reports the configured window" window reported;
        d.Tls.Sim.sd_cycle
      | Tls.Sim.Missing_wait _ ->
        Alcotest.fail "expected No_progress, got Missing_wait"
    end
  in
  let w = 4_000 in
  let at_wm1 = fire_cycle (w - 1) in
  let at_w = fire_cycle w in
  let at_wp1 = fire_cycle (w + 1) in
  (* Strict boundary: widening the window by one cycle defers the trip
     by exactly one cycle. *)
  check_int "window defers firing by exactly one cycle" (at_w + 1) at_wp1;
  check_int "narrowing advances it by exactly one cycle" (at_w - 1) at_wm1;
  (* All three runs recover the same last-progress cycle P, so each
     fired at stall = window + 1 and none at stall <= window. *)
  let p = at_w - w - 1 in
  check_int "window-1 run: same last-progress cycle" p (at_wm1 - (w - 1) - 1);
  check_int "window+1 run: same last-progress cycle" p (at_wp1 - (w + 1) - 1);
  check_bool "progress happened before the wedge" true (p > 0)

(* [Config.t.max_cycles] is the one cycle budget: both the TLS run and
   the sequential timed run stop on it, under either engine. *)
let cycle_budget_is_typed () =
  let code = (compile_synced chain_src [||]).Tlscore.Pipeline.code in
  let expect_limit label expected_where f =
    match f () with
    | () -> Alcotest.fail (label ^ ": expected Cycle_limit")
    | exception Tls.Sim.Cycle_limit { max_cycles; cycle; where } ->
      check_int (label ^ ": budget carried") 100 max_cycles;
      check_bool (label ^ ": cycle at/above budget") true (cycle >= 100);
      Alcotest.(check string) (label ^ ": raised by") expected_where where
  in
  List.iter
    (fun (engine_name, engine) ->
      let cfg =
        { Tls.Config.u_mode with Tls.Config.max_cycles = 100; engine }
      in
      expect_limit (engine_name ^ " run") "Sim.run" (fun () ->
          ignore (Tls.Sim.run cfg code ~input:[||] ()));
      expect_limit (engine_name ^ " run_sequential") "Sim.run_sequential"
        (fun () ->
          ignore (Tls.Sim.run_sequential cfg code ~input:[||] ~track:[])))
    [ ("ref", Tls.Config.Engine_ref); ("event", Tls.Config.Engine_event) ]

(* ------------------------------------------------------------------ *)
(* Absorbable simulator faults: sequential equivalence must hold       *)
(* ------------------------------------------------------------------ *)

let absorbable_sim_faults () =
  let compiled = compile_synced chain_src [||] in
  let expected = seq_output chain_src [||] in
  List.iter
    (fun (label, fault) ->
      let cfg = { Tls.Config.c_mode with Tls.Config.sim_faults = [ fault ] } in
      let r = run_tls cfg compiled.Tlscore.Pipeline.code [||] in
      Alcotest.(check (list int)) (label ^ " output") expected
        r.Tls.Simstats.output;
      check_bool (label ^ " actually fired") true
        (r.Tls.Simstats.faults_fired >= 1))
    [
      ("corrupt-addr", Tls.Config.Corrupt_addr 0);
      ("corrupt-value", Tls.Config.Corrupt_value 0);
      ("delay-signal", Tls.Config.Delay_signal { nth = 0; extra = 1_500 });
      ("spurious-violation", Tls.Config.Spurious_violation 1);
    ]

let spurious_violation_squashes_once () =
  let compiled = compile_synced chain_src [||] in
  let base = run_tls Tls.Config.c_mode compiled.Tlscore.Pipeline.code [||] in
  let cfg =
    { Tls.Config.c_mode with
      Tls.Config.sim_faults = [ Tls.Config.Spurious_violation 1 ] }
  in
  let r = run_tls cfg compiled.Tlscore.Pipeline.code [||] in
  check_int "exactly one extra violation" (base.Tls.Simstats.violations + 1)
    r.Tls.Simstats.violations

(* ------------------------------------------------------------------ *)
(* Finite resources: graceful degradation (DESIGN §12)                 *)
(* ------------------------------------------------------------------ *)

let sig_buffer_drop_absorbed () =
  let compiled = compile_synced chain_src [||] in
  let expected = seq_output chain_src [||] in
  let cfg = { Tls.Config.c_mode with Tls.Config.sig_buffer_entries = 0 } in
  let r = run_tls cfg compiled.Tlscore.Pipeline.code [||] in
  Alcotest.(check (list int)) "output still sequential" expected
    r.Tls.Simstats.output;
  check_bool "signals were dropped" true
    (r.Tls.Simstats.resources.Tls.Simstats.rs_sig_drops >= 1)

let spec_overflow_stall_absorbed () =
  (* U mode: without compiler sync the epochs run far enough ahead to
     pile up speculative lines (under C the chain serializes on its
     forwarded channel before any epoch accumulates state). *)
  let compiled = compile_synced chain_src [||] in
  let expected = seq_output chain_src [||] in
  let cfg = { Tls.Config.u_mode with Tls.Config.spec_lines_per_epoch = 1 } in
  let r = run_tls cfg compiled.Tlscore.Pipeline.code [||] in
  let rs = r.Tls.Simstats.resources in
  Alcotest.(check (list int)) "output still sequential" expected
    r.Tls.Simstats.output;
  check_bool "overflowed" true (rs.Tls.Simstats.rs_spec_overflows >= 1);
  check_bool "stalled, per policy" true (rs.Tls.Simstats.rs_spec_stalls >= 1);
  check_int "never squashed under Overflow_stall" 0
    rs.Tls.Simstats.rs_spec_squashes

let spec_overflow_squash_absorbed () =
  let compiled = compile_synced chain_src [||] in
  let expected = seq_output chain_src [||] in
  let cfg =
    {
      Tls.Config.u_mode with
      Tls.Config.spec_lines_per_epoch = 1;
      overflow_policy = Tls.Config.Overflow_squash;
    }
  in
  let r = run_tls cfg compiled.Tlscore.Pipeline.code [||] in
  let rs = r.Tls.Simstats.resources in
  Alcotest.(check (list int)) "output still sequential" expected
    r.Tls.Simstats.output;
  check_bool "squashed, per policy" true (rs.Tls.Simstats.rs_spec_squashes >= 1);
  (* Every overflow squash is an epoch squash (violation squashes may
     add more on top, but never fewer). *)
  check_bool "squashes show up in the epoch stats" true
    (r.Tls.Simstats.epochs_squashed >= rs.Tls.Simstats.rs_spec_squashes)

let fwd_queue_deadlock_is_typed () =
  let compiled = compile_synced chain_src [||] in
  let cfg = { Tls.Config.c_mode with Tls.Config.fwd_queue_depth = 0 } in
  match run_tls cfg compiled.Tlscore.Pipeline.code [||] with
  | _ -> Alcotest.fail "expected Resource_deadlock"
  | exception Tls.Sim.Resource_deadlock d ->
    check_int "carries the configured depth" 0 d.Tls.Sim.rd_depth;
    Alcotest.(check string) "names the owning function" "main" d.Tls.Sim.rd_func;
    check_bool "cycle recorded" true (d.Tls.Sim.rd_cycle > 0);
    check_bool "epoch snapshots attached" true (d.Tls.Sim.rd_epochs <> []);
    check_bool "renders" true
      (String.length (Tls.Sim.describe_resource_deadlock d) > 0)

let unreached_limits_are_invisible () =
  (* Finite limits the run never reaches must be byte-identical to the
     unbounded defaults — the accounting is pure observation. *)
  let compiled = compile_synced chain_src [||] in
  let base = run_tls Tls.Config.c_mode compiled.Tlscore.Pipeline.code [||] in
  let cfg =
    {
      Tls.Config.c_mode with
      Tls.Config.sig_buffer_entries = 1_000;
      spec_lines_per_epoch = 1_000;
      fwd_queue_depth = 1_000;
    }
  in
  let r = run_tls cfg compiled.Tlscore.Pipeline.code [||] in
  Alcotest.(check string) "fingerprints agree"
    (Tls.Simstats.fingerprint base)
    (Tls.Simstats.fingerprint r);
  let rs = r.Tls.Simstats.resources in
  check_int "no drops" 0 rs.Tls.Simstats.rs_sig_drops;
  check_int "no overflows" 0 rs.Tls.Simstats.rs_spec_overflows;
  check_int "no backpressure" 0 rs.Tls.Simstats.rs_bp_signals;
  check_bool "peaks observed anyway" true
    (rs.Tls.Simstats.rs_peak_spec_lines > 0)

let capacity_sweep_clean () =
  let programs =
    {
      Faults.Chaos.p_name = "chain";
      p_source = chain_src;
      p_train = [||];
      p_ref = [||];
      p_select_main = false;
    }
    :: Faults.Chaos.fuzz_programs ~count:1 ~seed:11
  in
  let cells =
    Faults.Chaos.run_capacity
      ~modes:[ ("U", Tls.Config.u_mode); ("C", Tls.Config.c_mode) ]
      programs
  in
  check_int "cells = programs x modes x axes"
    (List.length programs * 2 * List.length Faults.Chaos.capacity_axes)
    (List.length cells);
  check_int "zero FAILED" 0 (Faults.Chaos.count_capacity_failed cells);
  check_bool "some axis absorbed" true
    (List.exists (fun c -> c.Faults.Chaos.cc_outcome = Faults.Chaos.Absorbed) cells);
  check_bool "forwarding axis detected" true
    (List.exists
       (fun c ->
         c.Faults.Chaos.cc_axis = Faults.Chaos.Cap_fwd_queue
         && match c.Faults.Chaos.cc_outcome with
            | Faults.Chaos.Detected _ -> true
            | _ -> false)
       cells);
  check_bool "renders with tally" true
    (String.length (Faults.Chaos.render_capacity_table cells) > 0)

(* ------------------------------------------------------------------ *)
(* Static <-> dynamic agreement                                        *)
(* ------------------------------------------------------------------ *)

(* synclint on the mutated IR must flag the fault with the expected
   detector, and the simulator must realize the predicted dynamic
   outcome. *)
let lint_mutant kind src input =
  let compiled = compile_synced src input in
  let applied = mutate_exn kind compiled.Tlscore.Pipeline.prog in
  let findings =
    Analysis.Synclint.run_prog
      ~dep_profiles:compiled.Tlscore.Pipeline.dep_profiles
      applied.Faults.Irfault.prog
  in
  (applied, findings)

let has_error findings detector =
  List.exists
    (fun (f : Analysis.Synclint.finding) ->
      String.equal f.Analysis.Synclint.f_detector detector
      && f.Analysis.Synclint.f_severity = Analysis.Synclint.Error)
    findings

let agreement_drop_signal () =
  let _, findings = lint_mutant Faults.Irfault.Drop_signal chain_src [||] in
  check_bool "signal-exactness error predicted" true
    (has_error findings "signal-exactness")
(* dynamic outcome asserted by dropped_signal_deadlocks *)

let agreement_drop_wait () =
  let _, findings = lint_mutant Faults.Irfault.Drop_wait chain_src [||] in
  check_bool "dominance error predicted" true (has_error findings "dominance")
(* dynamic outcome asserted by dropped_wait_trips_protocol_check *)

let agreement_dup_signal () =
  let applied, findings =
    lint_mutant Faults.Irfault.Duplicate_signal chain_src [||]
  in
  check_bool "double-signal error predicted" true
    (has_error findings "double-signal");
  (* Dynamic: the duplicate re-sends the same value; consumers that
     already used the first copy are violated and re-run — absorbed. *)
  let code = Runtime.Code.of_prog applied.Faults.Irfault.prog in
  let r = run_tls Tls.Config.c_mode code [||] in
  Alcotest.(check (list int)) "dup-signal absorbed" (seq_output chain_src [||])
    r.Tls.Simstats.output

let agreement_foreign_signal () =
  let applied, findings =
    lint_mutant Faults.Irfault.Foreign_signal chain_src [||]
  in
  check_bool "foreign-channel error predicted" true
    (has_error findings "foreign-channel");
  let code = Runtime.Code.of_prog applied.Faults.Irfault.prog in
  let r = run_tls Tls.Config.c_mode code [||] in
  Alcotest.(check (list int)) "foreign-signal absorbed"
    (seq_output chain_src [||])
    r.Tls.Simstats.output

(* ------------------------------------------------------------------ *)
(* Chaos matrix                                                        *)
(* ------------------------------------------------------------------ *)

let find_cell cells mode fault =
  List.find
    (fun (c : Faults.Chaos.cell) ->
      String.equal c.Faults.Chaos.c_mode mode
      && String.equal c.Faults.Chaos.c_fault fault)
    cells

let chaos_matrix_clean () =
  let program =
    {
      Faults.Chaos.p_name = "aliasing";
      p_source = aliasing_src;
      p_train = train_input;
      p_ref = ref_input;
      p_select_main = false;
    }
  in
  let cells =
    Faults.Chaos.run_program ~modes:Faults.Chaos.default_modes
      ~faults:Faults.Fault.catalog program
  in
  check_int "no FAILED cells" 0 (Faults.Chaos.count_failed cells);
  (match (find_cell cells "C" "none").Faults.Chaos.c_outcome with
  | Faults.Chaos.Passed -> ()
  | _ -> Alcotest.fail "baseline under C should pass");
  (match (find_cell cells "C" "drop-signal").Faults.Chaos.c_outcome with
  | Faults.Chaos.Detected _ -> ()
  | _ -> Alcotest.fail "drop-signal under C should be detected");
  (match (find_cell cells "U" "drop-arcs").Faults.Chaos.c_outcome with
  | Faults.Chaos.Skipped -> ()
  | _ -> Alcotest.fail "profile fault under U should be skipped");
  let table = Faults.Chaos.render_table cells in
  check_bool "table reports zero FAILED" true
    (let needle = "0 FAILED" in
     let n = String.length table and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub table i m = needle || scan (i + 1)) in
     scan 0)

(* Sync scheduling over the generated corpus: for every program,
   scheduling must preserve sequential equivalence (both under the
   sequential interpreter and end-to-end through the simulator), stay
   lint-clean, and never increase the statically predicted stall. *)
let sched_params =
  {
    Analysis.Staticcost.issue_width = 4;
    lat_mul = 3;
    lat_div = 12;
    forward_latency = 10;
    spawn_overhead = 10;
    track_line_words = Some 8;
  }

let predicted_stall prog input =
  let profile = Profiler.Runner.run prog ~input ~watch:[] in
  List.fold_left
    (fun acc (rc : Analysis.Staticcost.region_cost) ->
      List.fold_left
        (fun a (cc : Analysis.Staticcost.channel_cost) ->
          a +. cc.Analysis.Staticcost.cc_total)
        acc rc.Analysis.Staticcost.rc_channels)
    0.
    (Analysis.Staticcost.analyze sched_params profile prog)

let seq_output_prog prog input =
  let code = Runtime.Code.of_prog prog in
  let mem = Runtime.Memory.create () in
  Runtime.Thread.run_sequential code ~input mem

let sched_fuzz =
  QCheck.Test.make ~count:30 ~name:"sync scheduling differential"
    (QCheck.make
       ~print:(fun seed -> fst (Faults.Proggen.generate ~seed))
       (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let src, input = Faults.Proggen.generate ~seed in
      let selection =
        List.filter
          (fun k -> String.equal k.Profiler.Profile.lk_func "main")
          (Profiler.Runner.all_loops (Tlscore.Pipeline.original ~source:src))
      in
      let comp sync_sched =
        Tlscore.Pipeline.compile ~selection ~sync_sched ~source:src
          ~profile_input:input
          ~memory_sync:
            (Tlscore.Pipeline.Profiled { dep_input = input; threshold = 0.05 })
          ()
      in
      let naive = comp false and sched = comp true in
      let reference =
        seq_output_prog (Tlscore.Pipeline.original ~source:src) input
      in
      let r =
        run_tls Tls.Config.c_mode sched.Tlscore.Pipeline.code input
      in
      seq_output_prog sched.Tlscore.Pipeline.prog input = reference
      && r.Tls.Simstats.output = reference
      && sched.Tlscore.Pipeline.lint_findings = []
      && predicted_stall sched.Tlscore.Pipeline.prog input
         <= predicted_stall naive.Tlscore.Pipeline.prog input +. 1e-6)

(* The differential fuzzer: each generated program must survive its full
   fault x mode matrix with zero FAILED cells. *)
let chaos_fuzz =
  QCheck.Test.make ~count:50 ~name:"chaos differential fuzzing"
    (QCheck.make
       ~print:(fun seed -> fst (Faults.Proggen.generate ~seed))
       (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let program = List.hd (Faults.Chaos.fuzz_programs ~count:1 ~seed) in
      let cells =
        Faults.Chaos.run_program ~modes:Faults.Chaos.default_modes
          ~faults:Faults.Fault.catalog program
      in
      Faults.Chaos.count_failed cells = 0)

let () =
  Alcotest.run "faults"
    [
      ( "proggen",
        [
          Alcotest.test_case "deterministic" `Quick proggen_deterministic;
          Alcotest.test_case "runs sequentially" `Quick proggen_runs_sequentially;
        ] );
      ( "profile-faults",
        [
          Alcotest.test_case "pure and deterministic" `Quick
            proffault_pure_and_deterministic;
          Alcotest.test_case "absorbed" `Quick profile_faults_absorbed;
          Alcotest.test_case "stale training absorbed" `Quick
            stale_training_absorbed;
        ] );
      ( "detectable",
        [
          Alcotest.test_case "dropped signal deadlocks" `Quick
            dropped_signal_deadlocks;
          Alcotest.test_case "dropped wait trips protocol check" `Quick
            dropped_wait_trips_protocol_check;
          Alcotest.test_case "protocol check yields to filtering" `Quick
            dropped_wait_check_yields_to_filtering;
          Alcotest.test_case "dropped wakeup trips watchdog" `Quick
            dropped_wakeup_trips_watchdog;
          Alcotest.test_case "watchdog boundary is exact" `Quick
            watchdog_boundary_is_exact;
          Alcotest.test_case "cycle budget is typed" `Quick cycle_budget_is_typed;
        ] );
      ( "absorbable",
        [
          Alcotest.test_case "sim faults absorbed" `Quick absorbable_sim_faults;
          Alcotest.test_case "spurious violation squashes once" `Quick
            spurious_violation_squashes_once;
        ] );
      ( "resources",
        [
          Alcotest.test_case "signal-buffer drops absorbed" `Quick
            sig_buffer_drop_absorbed;
          Alcotest.test_case "spec-line overflow stalls absorbed" `Quick
            spec_overflow_stall_absorbed;
          Alcotest.test_case "spec-line overflow squashes absorbed" `Quick
            spec_overflow_squash_absorbed;
          Alcotest.test_case "forwarding-queue deadlock is typed" `Quick
            fwd_queue_deadlock_is_typed;
          Alcotest.test_case "unreached limits are invisible" `Quick
            unreached_limits_are_invisible;
          Alcotest.test_case "capacity sweep clean" `Quick capacity_sweep_clean;
        ] );
      ( "agreement",
        [
          Alcotest.test_case "drop-signal" `Quick agreement_drop_signal;
          Alcotest.test_case "drop-wait" `Quick agreement_drop_wait;
          Alcotest.test_case "dup-signal" `Quick agreement_dup_signal;
          Alcotest.test_case "foreign-signal" `Quick agreement_foreign_signal;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "matrix clean" `Quick chaos_matrix_clean;
          QCheck_alcotest.to_alcotest chaos_fuzz;
        ] );
      ( "sync sched",
        [ QCheck_alcotest.to_alcotest sched_fuzz ] );
    ]

(* Determinism of the simulator and of the Domain-parallel runner.

   Two invariants hold the whole evaluation pipeline together:

   1. The simulator is a deterministic function of (program, input,
      config): running the same seed twice yields byte-identical
      Simstats once the wall-clock/allocation counters are stripped
      (they are measurements of the host, not of the simulated machine,
      and are excluded from the fingerprint by construction).

   2. The Jobs worker pool is a drop-in for List.map: results come back
      in input order whatever the domain count, so the chaos matrix and
      the figure tables render byte-identical output serial vs
      `--jobs N`. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let compile_synced src input =
  Tlscore.Pipeline.compile ~lint:false ~source:src ~profile_input:input
    ~memory_sync:
      (Tlscore.Pipeline.Profiled { dep_input = input; threshold = 0.05 })
    ()

(* ------------------------------------------------------------------ *)
(* Jobs pool: order, degradation, exceptions                           *)
(* ------------------------------------------------------------------ *)

let jobs_map_is_list_map () =
  let items = List.init 257 (fun i -> i) in
  let f i = (i * i) - (3 * i) in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expected
        (Harness.Jobs.map ~jobs f items))
    [ 1; 2; 4; 7 ]

let jobs_map_edge_cases () =
  Alcotest.(check (list int)) "empty list" [] (Harness.Jobs.map ~jobs:4 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 9 ] (Harness.Jobs.map ~jobs:4 (fun i -> i * 9) [ 1 ]);
  check_int "jobs below 1 clamps to serial" 6
    (List.length (Harness.Jobs.map ~jobs:0 (fun i -> i) [ 1; 2; 3; 4; 5; 6 ]));
  check_bool "available is positive" true (Harness.Jobs.available () >= 1)

let jobs_serial_pool_is_serial () =
  (* jobs=1 must never spawn a domain: side effects happen in order on
     the calling domain. *)
  let trace = ref [] in
  let self = Domain.self () in
  let _ =
    (Harness.Jobs.create ~jobs:1 ()).Harness.Jobs.map
      (fun i ->
        check_bool "runs on calling domain" true (Domain.self () = self);
        trace := i :: !trace;
        i)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "in-order side effects" [ 3; 2; 1 ] !trace

let jobs_reraises_lowest_index_error () =
  (* When several jobs fail, the error for the lowest input index wins,
     so a parallel run fails with the same exception a serial run
     would. *)
  List.iter
    (fun jobs ->
      match
        Harness.Jobs.map ~jobs
          (fun i -> if i mod 3 = 2 then failwith (Printf.sprintf "boom %d" i) else i)
          (List.init 20 (fun i -> i))
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
        check_str (Printf.sprintf "jobs=%d lowest failure wins" jobs) "boom 2" msg)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Simulator determinism: same seed, byte-identical Simstats           *)
(* ------------------------------------------------------------------ *)

let sim_runs_for_seed seed =
  let src, input = Faults.Proggen.generate ~seed in
  let compiled = compile_synced src input in
  let run () = Tls.Sim.run Tls.Config.c_mode compiled.Tlscore.Pipeline.code ~input () in
  let seq () =
    Tls.Sim.run_sequential Tls.Config.default
      (Runtime.Code.of_prog (Tlscore.Pipeline.original ~source:src))
      ~input ~track:compiled.Tlscore.Pipeline.code.Runtime.Code.regions
  in
  ((run (), run ()), (seq (), seq ()))

let same_seed_same_fingerprint =
  QCheck.Test.make ~count:8 ~name:"same seed yields byte-identical Simstats"
    QCheck.(int_range 0 30)
    (fun seed ->
      let (r1, r2), (s1, s2) = sim_runs_for_seed seed in
      String.equal (Tls.Simstats.fingerprint r1) (Tls.Simstats.fingerprint r2)
      && String.equal
           (Tls.Simstats.seq_fingerprint s1)
           (Tls.Simstats.seq_fingerprint s2)
      (* The stripped records really are structurally equal, memory
         included — the fingerprint is not hiding a difference. *)
      && Tls.Simstats.strip_runtime r1 = Tls.Simstats.strip_runtime r2
         [@warning "-57"])

let fingerprints_separate_programs () =
  let ((r5, _), (s5, _)) = sim_runs_for_seed 5 in
  let ((r6, _), (s6, _)) = sim_runs_for_seed 6 in
  check_bool "TLS fingerprints differ across programs" false
    (String.equal (Tls.Simstats.fingerprint r5) (Tls.Simstats.fingerprint r6));
  check_bool "sequential fingerprints differ across programs" false
    (String.equal (Tls.Simstats.seq_fingerprint s5) (Tls.Simstats.seq_fingerprint s6))

(* Fingerprints digest only what the simulated machine did: host-side
   runtime counters and the DESIGN §12 resource accounting must both be
   invisible.  The perturbation mutates every excluded counter to an
   arbitrary value and the digest must not move; strip_runtime must be
   idempotent (stripping is a projection, not an accumulating edit). *)
let fingerprint_ignores_host_counters =
  QCheck.Test.make ~count:16
    ~name:"fingerprint invariant under runtime/resource perturbation"
    QCheck.(pair (int_range 0 10) (int_range 1 1_000_000))
    (fun (seed, k) ->
      let (r, _), (s, _) = sim_runs_for_seed seed in
      let fp = Tls.Simstats.fingerprint r in
      let sfp = Tls.Simstats.seq_fingerprint s in
      let stripped = Tls.Simstats.strip_runtime r in
      let perturbed =
        {
          r with
          Tls.Simstats.runtime =
            {
              Tls.Simstats.rt_wall_ns = k;
              rt_minor_words = float_of_int k *. 1.5;
              rt_major_words = float_of_int k *. 0.25;
            };
        }
      in
      (* The resource counters are mutable on purpose (the sim bumps
         them in place); scribbling over every one of them must leave
         the digest untouched. *)
      let rs = perturbed.Tls.Simstats.resources in
      rs.Tls.Simstats.rs_sig_drops <- k;
      rs.Tls.Simstats.rs_spec_overflows <- k + 1;
      rs.Tls.Simstats.rs_spec_stalls <- k + 2;
      rs.Tls.Simstats.rs_spec_squashes <- k + 3;
      rs.Tls.Simstats.rs_bp_signals <- k + 4;
      rs.Tls.Simstats.rs_bp_slots <- k + 5;
      rs.Tls.Simstats.rs_peak_spec_lines <- k + 6;
      rs.Tls.Simstats.rs_peak_fwd_queue <- k + 7;
      rs.Tls.Simstats.rs_hw_evictions <- k + 8;
      rs.Tls.Simstats.rs_peak_hw_table <- k + 9;
      let s_perturbed =
        {
          s with
          Tls.Simstats.sq_runtime =
            {
              Tls.Simstats.rt_wall_ns = k;
              rt_minor_words = float_of_int k;
              rt_major_words = float_of_int k;
            };
        }
      in
      String.equal fp (Tls.Simstats.fingerprint perturbed)
      && String.equal sfp (Tls.Simstats.seq_fingerprint s_perturbed)
      && Tls.Simstats.strip_runtime stripped = stripped [@warning "-57"])

let runtime_counters_populated () =
  (* The counters exist (wall time advanced, allocation was measured),
     and stripping them is what makes reruns identical.  Every run
     allocates its simulator state, so even a tiny generated program
     under the event engine counts more than 0 words; a counter sampled
     only at minor collections reads 0 here. *)
  let (r1, _), (s1, _) = sim_runs_for_seed 3 in
  check_bool "tls wall_ns > 0" true (r1.Tls.Simstats.runtime.Tls.Simstats.rt_wall_ns > 0);
  check_bool "tls minor words > 0" true
    (r1.Tls.Simstats.runtime.Tls.Simstats.rt_minor_words > 0.0);
  let src, input = Faults.Proggen.generate ~seed:3 in
  let compiled = compile_synced src input in
  let ref_run =
    Tls.Sim.run
      { Tls.Config.c_mode with Tls.Config.engine = Tls.Config.Engine_ref }
      compiled.Tlscore.Pipeline.code ~input ()
  in
  check_bool "ref engine minor words > 0" true
    (ref_run.Tls.Simstats.runtime.Tls.Simstats.rt_minor_words > 0.0);
  check_bool "seq wall_ns > 0" true
    (s1.Tls.Simstats.sq_runtime.Tls.Simstats.rt_wall_ns > 0);
  check_bool "strip_runtime zeroes counters" true
    ((Tls.Simstats.strip_runtime r1).Tls.Simstats.runtime = Tls.Simstats.no_runtime)

(* The event engine's whole point is constant-factor elimination: flat
   mutable scratch instead of per-cycle maps/closures.  Guard the win
   with a GC regression — a change that quietly reintroduces per-cycle
   allocation shows up here long before it shows up on a wall clock. *)
let event_engine_allocation_regression () =
  let w =
    match Workloads.Registry.find "parser" with
    | Some w -> w
    | None -> Alcotest.fail "missing bundled benchmark parser"
  in
  let compiled =
    compile_synced w.Workloads.Workload.source w.Workloads.Workload.train_input
  in
  let minor_words engine =
    let cfg = { Tls.Config.c_mode with Tls.Config.engine } in
    let r =
      Tls.Sim.run cfg compiled.Tlscore.Pipeline.code
        ~input:w.Workloads.Workload.ref_input ()
    in
    r.Tls.Simstats.runtime.Tls.Simstats.rt_minor_words
  in
  let ref_words = minor_words Tls.Config.Engine_ref in
  let event_words = minor_words Tls.Config.Engine_event in
  check_bool "both engines allocate something" true
    (ref_words > 0.0 && event_words > 0.0);
  check_bool
    (Printf.sprintf
       "event engine allocates >=5x fewer minor words (ref %.0f, event %.0f)"
       ref_words event_words)
    true
    (ref_words >= 5.0 *. event_words)

(* ------------------------------------------------------------------ *)
(* Parallel matrix == serial matrix, byte for byte                     *)
(* ------------------------------------------------------------------ *)

let program_of_workload name =
  match Workloads.Registry.find name with
  | Some w ->
    {
      Faults.Chaos.p_name = w.Workloads.Workload.name;
      p_source = w.Workloads.Workload.source;
      p_train = w.Workloads.Workload.train_input;
      p_ref = w.Workloads.Workload.ref_input;
      p_select_main = false;
    }
  | None -> Alcotest.fail ("missing bundled benchmark " ^ name)

let matrix_programs () =
  [ program_of_workload "twolf" ] @ Faults.Chaos.fuzz_programs ~count:1 ~seed:7

let render_matrix map =
  let log = Buffer.create 1024 in
  let cells =
    Faults.Chaos.run_matrix
      ~log:(fun s ->
        Buffer.add_string log s;
        Buffer.add_char log '\n')
      ~map
      ~modes:[ ("U", Tls.Config.u_mode); ("C", Tls.Config.c_mode) ]
      ~faults:Faults.Fault.catalog (matrix_programs ())
  in
  Buffer.contents log ^ "\n" ^ Faults.Chaos.render_table cells

let parallel_chaos_is_byte_identical () =
  let serial = render_matrix (fun f l -> List.map f l) in
  let pool = Harness.Jobs.create ~jobs:4 () in
  let parallel = render_matrix pool.Harness.Jobs.map in
  check_str "chaos log+table bytes" serial parallel

let parallel_figures_are_byte_identical () =
  let ctxs =
    List.map
      (fun name ->
        match Workloads.Registry.find name with
        | Some w -> Harness.Context.make w
        | None -> Alcotest.fail ("missing bundled benchmark " ^ name))
      [ "mcf"; "twolf" ]
  in
  let pool = Harness.Jobs.create ~jobs:4 () in
  List.iter
    (fun (label, render) ->
      check_str (label ^ " bytes")
        (render Harness.Jobs.serial ctxs)
        (render pool ctxs))
    [
      ("fig2", fun pool ctxs -> Harness.Figures.fig2 ~pool ctxs);
      ("fig6", fun pool ctxs -> Harness.Figures.fig6 ~pool ctxs);
      ("table2", fun pool ctxs -> Harness.Figures.table2 ~pool ctxs);
    ]

let () =
  Alcotest.run "determinism"
    [
      ( "jobs",
        [
          Alcotest.test_case "map equals List.map" `Quick jobs_map_is_list_map;
          Alcotest.test_case "edge cases" `Quick jobs_map_edge_cases;
          Alcotest.test_case "jobs=1 stays on calling domain" `Quick
            jobs_serial_pool_is_serial;
          Alcotest.test_case "lowest-index error wins" `Quick
            jobs_reraises_lowest_index_error;
        ] );
      ( "simulator",
        [
          QCheck_alcotest.to_alcotest same_seed_same_fingerprint;
          QCheck_alcotest.to_alcotest fingerprint_ignores_host_counters;
          Alcotest.test_case "fingerprints separate programs" `Quick
            fingerprints_separate_programs;
          Alcotest.test_case "runtime counters populated" `Quick
            runtime_counters_populated;
          Alcotest.test_case "event engine allocates >=5x less" `Slow
            event_engine_allocation_regression;
        ] );
      ( "parallel-vs-serial",
        [
          Alcotest.test_case "chaos matrix byte-identical" `Slow
            parallel_chaos_is_byte_identical;
          Alcotest.test_case "figures byte-identical" `Slow
            parallel_figures_are_byte_identical;
        ] );
    ]

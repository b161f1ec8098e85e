(* mrvbench: the end-to-end benchmark of the compiler, the simulated and
   the real TLS machine, and the compile service.

     dune exec --profile release mrvbench/mrvbench.exe -- \
       --workload compile|simulate|exec|serve|all --seed N \
       --seconds S --trace 0|1

   An untraced run (--trace 0) sets its workload up three to seven times
   (setup_s is the median), runs one warm-up sweep, then whole sweeps of
   ops for at least S seconds, checking every op against an independent
   reference.  It prints every end-to-end metric by name and unit, then
   one JSON line; the full result, with workload metrics and
   deterministic counts, goes to OUT_DIR/<workload>-seed<N>.json.
   --workload all runs the four workloads one after another, each in its
   own process.

   A traced run (--trace 1) gives the per-layer numbers.  Each layer is
   measured on the workload that exercises it, so a traced run covers all
   four workloads whatever --workload names, each for S/4 seconds,
   alternating traced and untraced sweeps.  It prints every per-layer
   metric and writes the spans to OUT_DIR/trace-seed<N>.json as Chrome
   trace-event JSON. *)

let workloads =
  [
    ("compile", Wcompile.setup);
    ("simulate", Wsimulate.setup);
    ("exec", Wexec.setup);
    ("serve", Wserve.setup);
  ]

(* p90 is the highest percentile with ten samples beyond it at 100 ops. *)
let min_ops = 100

let max_setups = 7

let peak_rss_mb () =
  let kb =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
             | _ -> None)
    with Sys_error _ -> None
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

type run = {
  workload : string;
  seed : int;
  seconds : int;
  quick : bool;
  out_dir : string;
  commit : string;
}

let header run ~traced =
  Printf.printf "mrvbench %s seed=%d seconds=%d%s traced=%b nproc=%d ocaml=%s commit=%s\n%!"
    run.workload run.seed run.seconds
    (if run.quick then " quick" else "")
    traced (Domain.recommended_domain_count ()) Sys.ocaml_version run.commit

let print_metric (m : Measure.metric) =
  Printf.printf "  %-26s %s %s\n" m.name (Measure.number m.value) m.unit

(* [marked]: exact values carry "exact": true, for compare.exe.  The
   closing line leaves the mark out: there a metric is just its value and
   unit. *)
let metrics_json ?(marked = true) ms =
  Harness.Json.Jobj
    (List.map
       (fun (m : Measure.metric) ->
         ( m.name,
           Harness.Json.Jobj
             ([ ("value", Harness.Json.Jnum m.value); ("unit", Harness.Json.Jstr m.unit) ]
             @ if marked && m.exact then [ ("exact", Harness.Json.Jbool true) ] else []) ))
       ms)

(* Print the metrics and the closing JSON line, write the result file,
   and return the exit code: 0 when every op passed its checks. *)
let finish run ~traced ~file ~recorders ~metrics ~extra ~digests =
  let attempted = List.fold_left (fun a (r : Recorder.t) -> a + r.attempted) 0 recorders in
  let failed = List.fold_left (fun a (r : Recorder.t) -> a + r.failed) 0 recorders in
  List.iter
    (fun (r : Recorder.t) ->
      List.iter (fun f -> Printf.eprintf "FAILED %s\n%!" f) (List.rev r.failures))
    recorders;
  let correct = failed = 0 && attempted > 0 in
  List.iter print_metric metrics;
  if extra <> [] then begin
    print_endline "  -- workload metrics and deterministic counts";
    List.iter print_metric extra
  end;
  let open Harness.Json in
  let result =
    Jobj
      [
        ("schema", Jstr "mrvbench-1");
        ("workload", Jstr run.workload);
        ("seed", Jnum (float_of_int run.seed));
        ("seconds", Jnum (float_of_int run.seconds));
        ("quick", Jbool run.quick);
        ("traced", Jbool traced);
        ("commit", Jstr run.commit);
        ("nproc", Jnum (float_of_int (Domain.recommended_domain_count ())));
        ("ocaml", Jstr Sys.ocaml_version);
        ("correct", Jbool correct);
        ("attempted", Jnum (float_of_int attempted));
        ("failed", Jnum (float_of_int failed));
        ("metrics", metrics_json metrics);
        ("extra", metrics_json extra);
        ("digests", Jobj (List.map (fun (k, d) -> (k, Jstr d)) digests));
      ]
  in
  Out_channel.with_open_bin (Filename.concat run.out_dir file) (fun oc ->
      output_string oc (Measure.to_json result);
      output_char oc '\n');
  print_endline
    (Measure.to_json
       (Jobj
          [
            ("correct", Jbool correct);
            ("attempted", Jnum (float_of_int attempted));
            ("failed", Jnum (float_of_int failed));
            ("metrics", metrics_json ~marked:false metrics);
          ]));
  if correct then 0 else 1

let cache_dir run = Filename.concat run.out_dir (Printf.sprintf "serve-cache-%d" (Unix.getpid ()))

(* One workload, tracing off. *)
let untraced run =
  header run ~traced:false;
  let setup = List.assoc run.workload workloads in
  (* At least three set-ups, more while they have taken under two seconds,
     so a short set-up gets a steadier median. *)
  let enough k acc =
    run.quick || k >= max_setups || (k >= 3 && Measure.sum acc >= 2.0)
  in
  let rec set_up k acc =
    let r = Recorder.create () in
    let t0 = Measure.now_ns () in
    let s = setup ~track:0 ~seed:run.seed ~quick:run.quick ~dir:(cache_dir run) r in
    let acc = float_of_int (Measure.now_ns () - t0) /. 1e9 :: acc in
    if enough k acc then (r, s, acc)
    else begin
      s.Recorder.teardown ();
      set_up (k + 1) acc
    end
  in
  let r, s, setup_s = set_up 1 [] in
  Fun.protect ~finally:s.teardown (fun () ->
      if not run.quick then Recorder.sweep r ~traced:false s.run_sweep;
      r.measuring <- true;
      let t0 = Measure.now_ns () in
      let elapsed () = float_of_int (Measure.now_ns () - t0) /. 1e9 in
      let seconds = float_of_int run.seconds in
      let rec loop n =
        let ops = List.length r.samples in
        if n = 0 || ((not run.quick) && (elapsed () < seconds || ops < min_ops))
        then begin
          Recorder.sweep r ~traced:false s.run_sweep;
          loop (n + 1)
        end
      in
      loop 0;
      let lat = List.map (fun (x : Recorder.sample) -> float_of_int x.ns) r.samples in
      let by_class = Hashtbl.create 64 in
      List.iter
        (fun (x : Recorder.sample) ->
          if not x.generated then
            Hashtbl.replace by_class x.cls
              (float_of_int x.ns :: Option.value (Hashtbl.find_opt by_class x.cls) ~default:[]))
        r.samples;
      let ops = List.length lat in
      if ops < min_ops && not run.quick then
        Printf.eprintf "warning: %d ops, fewer than the %d op_p90_ms needs\n" ops min_ops;
      let metrics =
        [
          Measure.metric "setup_s" "s" (Measure.median setup_s);
          (* The median sweep, so a slow stretch of the host shorter than
             half the window does not move it. *)
          Measure.metric "ops_per_s" "ops/s" (Measure.median r.sweep_rates);
          Measure.metric "op_p50_ms" "ms" (Measure.quantile 0.5 lat /. 1e6);
          Measure.metric "op_p90_ms" "ms" (Measure.quantile 0.9 lat /. 1e6);
          Measure.metric "op_gm_ms" "ms"
            (Measure.geomean (Hashtbl.fold (fun _ l acc -> Measure.median l :: acc) by_class [])
            /. 1e6);
          Measure.metric "peak_rss_mb" "MB" (peak_rss_mb ());
        ]
      in
      let extra =
        s.extras ()
        @ [
            Measure.metric "ops" "count" (float_of_int ops);
            Measure.metric "fail_ratio" "fraction"
              (float_of_int r.failed /. float_of_int (max 1 r.attempted));
            Measure.metric "window_s" "s" (elapsed ());
          ]
        @ Recorder.count_metrics r (Option.value r.counts ~default:[])
      in
      finish run ~traced:false
        ~file:(Printf.sprintf "%s-seed%d.json" run.workload run.seed)
        ~recorders:[ r ] ~metrics ~extra
        ~digests:[ (run.workload, s.digest ()) ])

(* All four workloads in one process, alternating traced and untraced
   sweeps, for the per-layer metrics. *)
let traced run =
  header run ~traced:true;
  let sessions =
    List.mapi
      (fun track (name, setup) ->
        Trace.set_track (track + 1) name;
        let r = Recorder.create () in
        (name, r, setup ~track:(track + 1) ~seed:run.seed ~quick:run.quick ~dir:(cache_dir run) r))
      workloads
  in
  let teardown () = List.iter (fun (_, _, (s : Recorder.session)) -> s.teardown ()) sessions in
  Fun.protect ~finally:teardown (fun () ->
      let slice = float_of_int run.seconds /. float_of_int (List.length sessions) in
      let slowdowns =
        List.mapi
          (fun track (name, (r : Recorder.t), (s : Recorder.session)) ->
            Trace.set_track (track + 1) name;
            (* The first sweep is untraced and unmeasured: it warms up and
               fixes the digests the staged compile must reproduce. *)
            Recorder.sweep r ~traced:false s.run_sweep;
            r.measuring <- true;
            let t0 = Measure.now_ns () in
            let rec loop () =
              Recorder.sweep r ~traced:true s.run_sweep;
              Recorder.sweep r ~traced:false s.run_sweep;
              if (not run.quick) && float_of_int (Measure.now_ns () - t0) /. 1e9 < slice then loop ()
            in
            loop ();
            (* Over the op classes both kinds of sweep run. *)
            let untraced = Recorder.samples r ~traced:false in
            let p50 samples =
              Measure.median
                (List.filter_map
                   (fun (x : Recorder.sample) ->
                     if List.exists (fun (u : Recorder.sample) -> u.cls = x.cls) untraced
                     then Some (float_of_int x.ns)
                     else None)
                   samples)
            in
            p50 (Recorder.samples r ~traced:true) /. p50 untraced)
          sessions
      in
      let file = Printf.sprintf "trace-seed%d.json" run.seed in
      Trace.write (Filename.concat run.out_dir file);
      Printf.printf "  trace: %s\n" (Filename.concat run.out_dir file);
      (* A metric as a ratio, which stays positive when tracing costs less
         than the noise; the overhead (ratio - 1) goes to the result file. *)
      let slowdown = Measure.geomean slowdowns in
      let metrics =
        List.concat_map (fun (_, _, (s : Recorder.session)) -> s.layers ()) sessions
        @ [ Measure.metric "trace.slowdown" "x" slowdown ]
      in
      finish run ~traced:true
        ~file:(Printf.sprintf "traced-seed%d.json" run.seed)
        ~recorders:(List.map (fun (_, r, _) -> r) sessions)
        ~metrics
        ~extra:[ Measure.metric "trace.overhead" "fraction" (slowdown -. 1.0) ]
        ~digests:(List.map (fun (name, _, (s : Recorder.session)) -> (name, s.digest ())) sessions))

(* --workload all, untraced: one child process per workload. *)
let each_in_a_child run =
  let status =
    List.map
      (fun (name, _) ->
        let args =
          [ "--workload"; name; "--seed"; string_of_int run.seed; "--seconds";
            string_of_int run.seconds; "--trace"; "0"; "--out-dir"; run.out_dir;
            "--commit"; run.commit ]
          @ if run.quick then [ "--quick" ] else []
        in
        let exe = Sys.executable_name in
        let pid =
          Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> 0
        | _, Unix.WEXITED c -> c
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 1)
      workloads
  in
  List.fold_left max 0 status

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let quick = ref false and out_dir = ref "_mrvbench" and commit = ref "unknown" in
  let names = List.map fst workloads @ [ "all" ] in
  let spec =
    [
      ( "--workload",
        Arg.Symbol (names, fun w -> workload := w),
        " workload to run" );
      ("--seed", Arg.Set_int seed, "N input seed (program order, generated programs, request mix)");
      ("--seconds", Arg.Set_int seconds, "S minimum measured time (default 10)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun t -> trace := int_of_string t), " 1: per-layer traced run");
      ("--quick", Arg.Set quick, " one sweep over three programs per workload (smoke test)");
      ("--out-dir", Arg.Set_string out_dir, "DIR result and trace files (default _mrvbench)");
      ("--commit", Arg.Set_string commit, "LABEL commit label recorded in the result");
    ]
  in
  let usage = "mrvbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" || !seconds < 1 then begin
    Arg.usage spec usage;
    exit 2
  end;
  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      Sys.mkdir dir 0o755
    end
  in
  mkdir_p !out_dir;
  let run =
    { workload = !workload; seed = !seed; seconds = !seconds; quick = !quick; out_dir = !out_dir; commit = !commit }
  in
  exit
    (if !trace = 1 then traced run
     else if !workload = "all" then each_in_a_child run
     else untraced run)

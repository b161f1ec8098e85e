(* exec: one op is one [Specrt.run] of code compiled (on the train
   input) during set-up, run on the ref input.  The
   [Runtime.Thread.run_sequential] baseline it has to beat runs on the
   same program and input in the same sweep; the simulator and the
   compiler stay idle. *)

type run = {
  name : string;
  code : Runtime.Code.t;
  original : Runtime.Code.t;
  input : int array;
  reference : Inputs.reference;
  commits : int;  (* Tls.Sim's committed epochs on the same code and input *)
  instrs : int Lazy.t;  (* dynamic instructions of the original, traced runs only *)
}

let opts domains = { (Specrt.default_opts Tls.Config.c_mode) with Specrt.domains }

let setup ~track ~seed ~quick ~dir:_ (r : Recorder.t) =
  let runs =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let source = w.Workloads.Workload.source and input = w.ref_input in
        let code = (Inputs.compile ~source ~input:w.train_input ()).Tlscore.Pipeline.code in
        let original = Inputs.original_code source in
        {
          name = w.name;
          code;
          original;
          input;
          reference = Inputs.run_sequential original ~input;
          commits = (Tls.Sim.run Tls.Config.c_mode code ~input ()).Tls.Simstats.epochs_committed;
          instrs =
            lazy
              (Tls.Sim.run_sequential Tls.Config.c_mode original ~input ~track:[])
                .Tls.Simstats.sq_instrs;
        })
      (Inputs.bundled ~quick)
  in
  let order = Inputs.shuffle ~seed runs in
  let seq_ns = Hashtbl.create 32 in
  let count ?exact = Recorder.count ?exact r in
  let exec x ~domains () =
    let g0 = Gc.quick_stat () in
    let res = Specrt.run ~opts:(opts domains) Tls.Config.c_mode x.code ~input:x.input in
    let g1 = Gc.quick_stat () in
    Trace.note "minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    (res, g1.Gc.major_collections - g0.Gc.major_collections)
  in
  let check x (res : Specrt.result) =
    match
      Inputs.check ~expected:x.reference ~output:res.r_output
        ~memory:(Tls.Simstats.canonical_memory res.r_final_memory)
    with
    | Error _ as e -> e
    | Ok () when res.r_epochs_committed <> x.commits ->
      Error
        (Printf.sprintf "%d epochs committed, the simulator commits %d"
           res.r_epochs_committed x.commits)
    | Ok () -> Ok ()
  in
  let run_sweep () =
    List.iter
      (fun x ->
        Recorder.op r ~cls:x.name
          ~call:(fun () ->
            Trace.span "specrt.run" (fun () ->
                let res, majors = exec x ~domains:Inputs.jobs () in
                let sched key v = count ~exact:false key (float_of_int v) in
                sched "specrt.gc_major" majors;
                sched "specrt.squashes" res.r_epochs_squashed;
                sched "specrt.violations" res.r_violations;
                count "specrt.commits" (float_of_int res.r_epochs_committed);
                res))
          ~check:(check x);
        (* The sequential baseline: timed, checked, not an op. *)
        let instrs = if r.traced then Lazy.force x.instrs else 0 in
        let seq, ns =
          Recorder.timed ~busy:false r ("seq " ^ x.name) (fun () ->
              Trace.span "runtime.seq" (fun () ->
                  Trace.note "instrs" (float_of_int instrs);
                  Inputs.run_sequential x.original ~input:x.input))
        in
        if seq <> x.reference then Recorder.fail r x.name "sequential run differs"
        else if r.Recorder.measuring && not r.traced then
          Hashtbl.replace seq_ns x.name
            (float_of_int ns :: Option.value (Hashtbl.find_opt seq_ns x.name) ~default:[]))
      order;
    (* Traced sweeps only: the runtime's bookkeeping without cross-domain
       waiting, as a standalone one-domain probe. *)
    if r.Recorder.traced then
      List.iter
        (fun x ->
          ignore
            (Trace.span "probe" (fun () ->
                 Trace.span "specrt.exec1" (exec x ~domains:1))))
        order
  in
  let extras () =
    let exec_ms = Hashtbl.create 32 in
    List.iter
      (fun (s : Recorder.sample) ->
        if not s.traced then
          Hashtbl.replace exec_ms s.cls
            (float_of_int s.ns :: Option.value (Hashtbl.find_opt exec_ms s.cls) ~default:[]))
      r.Recorder.samples;
    [
      Measure.metric "exec_vs_seq_gm" "x"
        (Measure.geomean
           (Hashtbl.fold
              (fun name seq acc ->
                (Measure.median seq /. Measure.median (Hashtbl.find exec_ms name)) :: acc)
              seq_ns []));
    ]
  in
  let layers () =
    let ms name = Measure.median (Trace.per_op_self track name) /. 1e6 in
    let cnt = Recorder.count_of (Option.value r.traced_counts ~default:[]) in
    let spans name =
      List.filter (fun ((s : Trace.span), _) -> s.name = name) (Trace.on_track track)
    in
    [
      Measure.metric "specrt.exec_ms" "ms" (ms "specrt.run");
      Measure.metric "specrt.exec1_ms" "ms" (ms "specrt.exec1");
      Measure.metric ~exact:true "specrt.commits" "count" (cnt "specrt.commits");
      Measure.metric "specrt.squashes" "count" (cnt "specrt.squashes");
      Measure.metric "specrt.violations" "count" (cnt "specrt.violations");
      Measure.metric "specrt.useful_epochs" "fraction"
        (cnt "specrt.commits" /. (cnt "specrt.commits" +. cnt "specrt.squashes"));
      Measure.metric "specrt.minor_words" "words"
        (Measure.median
           (List.map (fun (s, _) -> Trace.note_of s "minor_words") (spans "specrt.run")));
      Measure.metric "specrt.gc_major" "count" (cnt "specrt.gc_major");
      Measure.metric "runtime.seq_ms" "ms" (ms "runtime.seq");
      Measure.metric "runtime.ns_per_instr" "ns"
        (Measure.sum (List.map (fun (_, self) -> float_of_int self) (spans "runtime.seq"))
        /. Measure.sum (List.map (fun (s, _) -> Trace.note_of s "instrs") (spans "runtime.seq")));
    ]
  in
  {
    Recorder.run_sweep;
    extras;
    layers;
    digest =
      (fun () ->
        Inputs.digest_of
          (List.map (fun x -> Printf.sprintf "%s=%d" x.name x.commits) runs));
    teardown = ignore;
  }

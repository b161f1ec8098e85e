(* simulate: one op is one [Tls.Sim.run] or [run_sequential] on code
   compiled during set-up.  The same engine runs three ways: U mode
   (squash-heavy), C mode (sync-stall-heavy) and C mode under the bounded
   resources of [Harness.Bench.bounded_cfg] (degradation paths); the
   sequential timing run is the speedup baseline. *)

open Tlscore

type prog = {
  name : string;
  input : int array;
  u : Runtime.Code.t;
  c : Runtime.Code.t;
  original : Runtime.Code.t;
  regions : Ir.Region.t list;
  reference : Inputs.reference;
}

type mode = U | C | Bounded | Seq | Ref_c

let mode_name = function
  | U -> "sim_u"
  | C -> "sim_c"
  | Bounded -> "sim_bounded"
  | Seq -> "sim_seq"
  | Ref_c -> "ref_c"

let config = function
  | U -> Tls.Config.u_mode
  | C | Seq -> Tls.Config.c_mode
  | Bounded -> Harness.Bench.bounded_cfg
  | Ref_c -> { Tls.Config.c_mode with Tls.Config.engine = Tls.Config.Engine_ref }

type outcome = Par of Tls.Simstats.result | Sequential of Tls.Simstats.seq_result

let setup ~track ~seed ~quick ~dir:_ (r : Recorder.t) =
  let progs =
    List.map
      (fun (w : Workloads.Workload.t) ->
        let source = w.Workloads.Workload.source and train = w.train_input in
        let c = Inputs.compile ~source ~input:train () in
        let u =
          Pipeline.compile ~source ~profile_input:train
            ~memory_sync:Pipeline.No_memory_sync ()
        in
        let original = Inputs.original_code source in
        {
          name = w.name;
          input = w.ref_input;
          u = u.Pipeline.code;
          c = c.Pipeline.code;
          original;
          regions = c.Pipeline.code.Runtime.Code.regions;
          reference = Inputs.run_sequential original ~input:w.ref_input;
        })
      (Inputs.bundled ~quick)
  in
  let ops =
    Inputs.shuffle ~seed
      (List.concat_map (fun p -> [ (p, U); (p, C); (p, Bounded); (p, Seq) ]) progs)
  in
  (* Per (program, mode): the first run's fingerprint.  Per program: the
     original's dynamic instructions and cycles from its sequential run,
     and the C-mode cycles. *)
  let first_fp = Hashtbl.create 64 in
  let seq_runs = Hashtbl.create 16 in
  let c_cycles = Hashtbl.create 16 in
  let count = Recorder.count r in
  let instrs name =
    Option.fold ~none:0 ~some:fst (Hashtbl.find_opt seq_runs name)
  in
  let tally (p, mode) = function
    | Sequential s ->
      Hashtbl.replace seq_runs p.name
        (s.Tls.Simstats.sq_instrs, s.Tls.Simstats.sq_cycles)
    | Par res -> (
      let f key v = count key (float_of_int v) in
      let slots = res.Tls.Simstats.slots in
      match mode with
      | U ->
        f "tls.violations_u" res.violations;
        f "tls.squashed_u" res.epochs_squashed;
        f "tls.committed_u" res.epochs_committed;
        f "tls.slot_fail_u" slots.Tls.Simstats.s_fail
      | C ->
        Hashtbl.replace c_cycles p.name res.total_cycles;
        f "tls.cycles_c" res.total_cycles;
        f "tls.violations_c" res.violations;
        f "tls.slot_busy_c" slots.Tls.Simstats.s_busy;
        f "tls.slot_sync_c" slots.Tls.Simstats.s_sync;
        Trace.note "minor_words" res.runtime.Tls.Simstats.rt_minor_words;
        Trace.note "sq_instrs" (float_of_int (instrs p.name))
      | Bounded ->
        f "tls.sig_drops_bounded" res.resources.Tls.Simstats.rs_sig_drops
      | Seq | Ref_c -> ())
  in
  let run ((p, mode) as o) () =
    Trace.span ("tls." ^ mode_name mode) (fun () ->
        let outcome =
          match mode with
          | Seq ->
            Sequential
              (Tls.Sim.run_sequential (config mode) p.original ~input:p.input
                 ~track:p.regions)
          | U -> Par (Tls.Sim.run (config mode) p.u ~input:p.input ())
          | C | Bounded | Ref_c ->
            Par (Tls.Sim.run (config mode) p.c ~input:p.input ())
        in
        tally o outcome;
        outcome)
  in
  let check (p, mode) cls outcome =
    let output, memory, fp =
      match outcome with
      | Par res ->
        ( res.Tls.Simstats.output,
          Tls.Simstats.canonical_memory res.final_memory,
          Tls.Simstats.fingerprint res )
      | Sequential s ->
        ( s.Tls.Simstats.sq_output,
          Tls.Simstats.canonical_memory s.sq_memory,
          Tls.Simstats.seq_fingerprint s )
    in
    let fp_key = if mode = Ref_c then p.name ^ "/sim_c" else cls in
    match Inputs.check ~expected:p.reference ~output ~memory with
    | Error _ as e -> e
    | Ok () -> (
      match Hashtbl.find_opt first_fp fp_key with
      | None ->
        Hashtbl.add first_fp fp_key fp;
        Ok ()
      | Some fp0 when fp0 = fp -> Ok ()
      | Some _ -> Error "simulator fingerprint differs from the first run")
  in
  let op ((p, mode) as o) =
    let cls = p.name ^ "/" ^ mode_name mode in
    Recorder.op r ~cls ~call:(run o) ~check:(check o cls)
  in
  let run_sweep () =
    List.iter op ops;
    (* Traced sweeps only: the cycle-stepped oracle on the C-mode runs,
       and the icode encoder on each program as a standalone probe. *)
    if r.Recorder.traced then
      List.iter
        (fun p ->
          op (p, Ref_c);
          ignore
            (Trace.span "probe" (fun () ->
                 Trace.span "tls.icode_encode" (fun () -> Tls.Icode.of_code p.c))))
        progs
  in
  let samples mode =
    List.filter
      (fun (s : Recorder.sample) ->
        (not s.traced)
        && String.ends_with ~suffix:("/" ^ mode_name mode) s.cls)
      r.Recorder.samples
  in
  let instrs_of (s : Recorder.sample) =
    float_of_int (instrs (List.hd (String.split_on_char '/' s.cls)))
  in
  (* The modelled result: deterministic, so compared exactly. *)
  let speedup_gm () =
    Measure.geomean
      (List.map
         (fun p ->
           float_of_int (snd (Hashtbl.find seq_runs p.name))
           /. float_of_int (Hashtbl.find c_cycles p.name))
         progs)
  in
  let extras () =
    let tls = samples U @ samples C @ samples Bounded in
    [
      Measure.metric "sim_mips" "Minstr/s"
        (Measure.sum (List.map instrs_of tls)
        /. Measure.sum (List.map (fun (s : Recorder.sample) -> float_of_int s.ns) tls)
        *. 1e3);
      Measure.metric ~exact:true "speedup_gm" "x" (speedup_gm ());
    ]
  in
  let layers () =
    let ms name = Measure.median (Trace.per_op_self track name) /. 1e6 in
    let cnt = Recorder.count_of (Option.value r.traced_counts ~default:[]) in
    let c_spans =
      List.filter (fun ((s : Trace.span), _) -> s.name = "tls.sim_c") (Trace.on_track track)
    in
    let c_total f = Measure.sum (List.map f c_spans) in
    List.map
      (fun m ->
        let name = "tls." ^ mode_name m in
        Measure.metric (name ^ "_ms") "ms" (ms name))
      [ U; C; Bounded; Seq; Ref_c ]
    @ [
        Measure.metric "tls.icode_encode_ms" "ms" (ms "tls.icode_encode");
        Measure.metric "tls.ns_per_instr_c" "ns"
          (c_total (fun (_, self) -> float_of_int self)
          /. c_total (fun (s, _) -> Trace.note_of s "sq_instrs"));
        Measure.metric "tls.minor_words_c" "words"
          (Measure.median (List.map (fun (s, _) -> Trace.note_of s "minor_words") c_spans));
      ]
    @ List.map
        (fun name -> Measure.metric ~exact:true name "count" (cnt name))
        [
          "tls.cycles_c"; "tls.violations_u"; "tls.violations_c"; "tls.squashed_u";
          "tls.slot_busy_c"; "tls.slot_sync_c"; "tls.slot_fail_u"; "tls.sig_drops_bounded";
        ]
    @ [
        Measure.metric ~exact:true "tls.useful_epochs_u" "fraction"
          (cnt "tls.committed_u" /. (cnt "tls.committed_u" +. cnt "tls.squashed_u"));
      ]
  in
  {
    Recorder.run_sweep;
    extras;
    layers;
    digest =
      (fun () ->
        Inputs.digest_of
          (Hashtbl.fold (fun cls fp acc -> (cls ^ "=" ^ fp) :: acc) first_fp []));
    teardown = ignore;
  }

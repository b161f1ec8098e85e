(* [Tlscore.Pipeline.compile] replayed through the public stage functions,
   with one span per stage, for the traced compile op.  Every traced op
   checks that the replay yields [Pipeline.compile]'s artifact digest.
   This copy of the pipeline goes away once the spans live inside
   [Pipeline] itself. *)

open Tlscore

let span = Trace.span

let compile ~count ~sync_sched ~source ~input =
  let threshold = Inputs.threshold in
  let tast = span "lang.check" (fun () -> Lang.Sema.check_source source) in
  let lower () =
    span "ir.lower" (fun () ->
        count "ir.lower_calls" 1.0;
        Ir.Lower.program tast)
  in
  let profile prog ~watch =
    let p = Profiler.Runner.run prog ~input ~watch in
    count "profiler.instrs" (float_of_int p.Profiler.Profile.total_instrs);
    p
  in
  let reference = lower () in
  let loop_profile =
    span "profiler.loop" (fun () -> profile reference ~watch:[])
  in
  let selected =
    span "tlscore.select" (fun () -> Selection.select reference loop_profile)
  in
  let unroll_factors =
    span "tlscore.unroll" (fun () ->
        List.map
          (fun key -> (key, Unroll.suggested_factor loop_profile key))
          selected)
  in
  let apply_unrolling target =
    span "tlscore.unroll" (fun () ->
        List.iter
          (fun (key, factor) ->
            if factor > 1 then ignore (Unroll.apply target key ~factor))
          unroll_factors)
  in
  apply_unrolling reference;
  let dep_profiles =
    if selected = [] then []
    else
      span "profiler.dep" (fun () ->
          let p = profile reference ~watch:selected in
          List.filter_map
            (fun key ->
              Option.map (fun dp -> (key, dp)) (Profiler.Profile.dep_profile p key))
            selected)
  in
  let prog = lower () in
  apply_unrolling prog;
  let regions =
    span "tlscore.regions" (fun () ->
        List.map (fun key -> (key, Regions.create prog key)) selected)
  in
  let mem_stats =
    span "tlscore.memsync" (fun () ->
        List.filter_map
          (fun (key, (region, _)) ->
            Option.map
              (fun dp -> (key, Memsync.apply prog region dp ~threshold))
              (List.assoc_opt key dep_profiles))
          regions)
  in
  let verify () = span "ir.verify" (fun () -> Ir.Verify.check_exn prog) in
  verify ();
  let pointsto, sched_stats =
    if sync_sched then begin
      let pt = span "analysis.pointsto" (fun () -> Analysis.Pointsto.analyze prog) in
      let stats =
        span "analysis.syncsched" (fun () ->
            Analysis.Syncsched.apply ~pointsto:pt prog)
      in
      verify ();
      (Some pt, stats)
    end
    else (None, Analysis.Syncsched.zero)
  in
  let lint_findings =
    span "analysis.lint" (fun () ->
        Analysis.Synclint.run_prog ?pointsto ~dep_profiles prog)
  in
  let code = span "runtime.codegen" (fun () -> Runtime.Code.of_prog prog) in
  {
    Pipeline.prog;
    code;
    selected;
    loop_profile;
    dep_profiles;
    mem_stats;
    scalar_infos = List.map (fun (key, (_, infos)) -> (key, infos)) regions;
    unroll_factors;
    lint_findings;
    sched_stats;
  }

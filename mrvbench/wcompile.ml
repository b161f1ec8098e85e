(* compile: one op is one [Pipeline.compile] from source text to
   [Runtime.Code.t].  Bundled programs (profiling is ~98% of their
   compile) beside small generated ones (where the passes weigh more),
   each compiled with the sync scheduler off and on. *)

open Tlscore

type prog = {
  pname : string;
  bundled : bool;
  source : string;
  input : int array;
  reference : Inputs.reference;
}

(* Thirteen generated programs: fewer ops than the thirty bundled ones,
   so the median op is a bundled compile whatever the seed draws, and one
   inside the cluster of the fastest four rather than at a gap. *)
let generated ~seed ~quick =
  List.init (if quick then 1 else 13) (fun k ->
      let s = (seed * 1000) + k in
      let source, input = Faults.Proggen.generate ~seed:s in
      (Printf.sprintf "gen%d" s, false, source, input))

let stages =
  [
    "lang.check"; "ir.lower"; "ir.verify"; "profiler.loop"; "profiler.dep";
    "tlscore.select"; "tlscore.unroll"; "tlscore.regions"; "tlscore.memsync";
    "analysis.pointsto"; "analysis.syncsched"; "analysis.lint";
    "runtime.codegen";
  ]

(* Per-layer counts.  analysis.lint_findings is counted too, but only the
   result file has it: it is 0 for some seeds. *)
let counts =
  [
    "ir.lower_calls"; "ir.static_instrs"; "profiler.instrs"; "tlscore.regions";
    "tlscore.sync_groups"; "tlscore.sync_instrs"; "analysis.sched_moves";
  ]

let setup ~track ~seed ~quick ~dir:_ (r : Recorder.t) =
  let progs =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, true, w.source, w.train_input))
      (Inputs.bundled ~quick)
    @ generated ~seed ~quick
    |> List.map (fun (pname, bundled, source, input) ->
           {
             pname;
             bundled;
             source;
             input;
             reference =
               Inputs.run_sequential (Inputs.original_code source) ~input;
           })
  in
  let ops =
    Inputs.shuffle ~seed
      (List.concat_map (fun p -> [ (p, false); (p, true) ]) progs)
  in
  let first_digest = Hashtbl.create 64 in
  let count = Recorder.count r in
  let tally (c : Pipeline.compiled) =
    let mem f = float_of_int (List.fold_left (fun acc (_, s) -> acc + f s) 0 c.mem_stats) in
    count "ir.static_instrs" (float_of_int (Ir.Prog.static_size c.prog));
    count "tlscore.regions" (float_of_int (List.length c.selected));
    count "tlscore.sync_groups" (mem (fun s -> s.Memsync.ms_groups));
    count "tlscore.sync_instrs"
      (mem (fun s ->
           s.Memsync.ms_sync_loads + s.ms_sync_stores + s.ms_guarded_signals
           + s.ms_null_signals));
    count "analysis.sched_moves"
      (float_of_int (Analysis.Syncsched.total c.sched_stats));
    count "analysis.lint_findings" (float_of_int (List.length c.lint_findings))
  in
  let compile (p, sync_sched) () =
    let c =
      if r.Recorder.traced then
        Staged.compile ~count ~sync_sched ~source:p.source ~input:p.input
      else Inputs.compile ~sync_sched ~source:p.source ~input:p.input ()
    in
    tally c;
    c
  in
  (* The first compile of each program and configuration (always an
     untraced [Pipeline.compile]) must run sequentially to the
     reference; every later one, staged replays included, must
     reproduce its digest. *)
  let check (p, _) cls (c : Pipeline.compiled) =
    let d = Pipeline.artifact_digest c in
    match Hashtbl.find_opt first_digest cls with
    | Some d0 when d = d0 -> Ok ()
    | Some _ -> Error "artifact digest differs from the first compile"
    | None ->
      Hashtbl.add first_digest cls d;
      let run = Inputs.run_sequential c.code ~input:p.input in
      Inputs.check ~expected:p.reference ~output:run.output ~memory:run.memory
  in
  let run_sweep () =
    List.iter
      (fun ((p, sync_sched) as o) ->
        let cls = if sync_sched then p.pname ^ "+sched" else p.pname in
        Recorder.op r ~cls ~generated:(not p.bundled) ~call:(compile o)
          ~check:(check o cls))
      ops
  in
  let layers () =
    let ms name = Measure.median (Trace.per_op_self track name) /. 1e6 in
    let spans = Trace.on_track track in
    let total pred f =
      Measure.sum
        (List.filter_map (fun (s, self) -> if pred s then Some (f s self) else None) spans)
    in
    let is_profiler (s : Trace.span) =
      s.name = "profiler.loop" || s.name = "profiler.dep"
    in
    let root (s : Trace.span) = s.parent < 0 in
    let profiler_ns = total is_profiler (fun _ self -> float_of_int self) in
    let op_ns = total root (fun s _ -> float_of_int (s.t1 - s.t0)) in
    let traced_counts = Option.value r.traced_counts ~default:[] in
    List.map (fun name -> Measure.metric (name ^ "_ms") "ms" (ms name)) stages
    @ List.map
        (fun name ->
          Measure.metric ~exact:true name "count"
            (Recorder.count_of traced_counts name))
        counts
    @ [
        Measure.metric "profiler.ns_per_instr" "ns"
          (profiler_ns
          /. total is_profiler (fun s _ -> Trace.note_of s "profiler.instrs"));
        Measure.metric "profiler.share" "fraction" (profiler_ns /. op_ns);
        Measure.metric "compile.unattributed" "fraction"
          (total root (fun _ self -> float_of_int self) /. op_ns);
      ]
  in
  {
    Recorder.run_sweep;
    extras = (fun () -> []);
    layers;
    digest =
      (fun () ->
        Inputs.digest_of
          (Hashtbl.fold (fun cls d acc -> (cls ^ "=" ^ d) :: acc) first_digest []));
    teardown = ignore;
  }

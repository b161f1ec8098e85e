(** End-to-end compilation pipeline (paper §3.1):

    source → lower → loop-profile → select regions → scalar sync
    → (optionally) dependence-profile → memory sync → executable snapshot.

    Profiling and transformation use separate compiles of the same source;
    lowering is deterministic, so instruction ids and labels agree between
    them (mirroring the paper's use of profiles gathered on one binary to
    transform another build of the same program). *)

type memory_sync =
  | No_memory_sync
  (* Profile dependences on this input, synchronize deps above threshold. *)
  | Profiled of { dep_input : int array; threshold : float }

(** The paper's synchronization threshold (§2.4): a memory dependence
    occurring in at least 5% of a region's epochs is synchronized.  Every
    default threshold in the CLI, the serve protocol, the harnesses and
    the figures reads this value. *)
val default_threshold : float

type compiled = {
  prog : Ir.Prog.t;
  code : Runtime.Code.t;
  selected : Profiler.Profile.loop_key list;
  loop_profile : Profiler.Profile.t;
  dep_profiles : (Profiler.Profile.loop_key * Profiler.Profile.dep_profile) list;
  mem_stats : (Profiler.Profile.loop_key * Memsync.stats) list;
  scalar_infos : (Profiler.Profile.loop_key * Regions.scalar_info list) list;
  unroll_factors : (Profiler.Profile.loop_key * int) list;
      (* factor applied per selected loop (1 = left alone) *)
  lint_findings : Analysis.Synclint.finding list;
      (* synclint report on the transformed program (empty when clean or
         when [~lint:false]) *)
  sched_stats : Analysis.Syncsched.stats;
      (* what the sync scheduler moved ({!Analysis.Syncsched.zero} when
         [~sync_sched:false]) *)
}

(** Compile one configuration.
    @param profile_input drives region selection (the paper's automatically
    gathered loop profile).
    @param selection overrides the heuristics (used by tests).
    @param unroll applies the paper's small-loop unrolling (default true);
    dependence profiling then runs on the unrolled program, so epochs and
    frequencies refer to unrolled iterations.
    @param eager_signals see {!Memsync.apply} (ablation knob).
    @param lint run {!Analysis.Synclint} on the transformed program and
    report its findings in [lint_findings] (default true; findings never
    abort the compile).
    @param profile_fault distorts each collected dependence profile before
    the memory-sync pass consumes it (the chaos harness's profile-fault
    layer); the reference execution itself is untouched.
    @param sync_sched run {!Analysis.Syncsched} after the sync passes —
    hoist signals toward their value definitions and sink waits toward
    their first uses (default false; off, the generated code is
    byte-identical to previous releases).  The rewritten program is
    re-checked by {!Ir.Verify}, and the lint pass reuses the scheduler's
    points-to analysis.
    The resulting program is always checked by {!Ir.Verify}. *)
val compile :
  ?selection:Profiler.Profile.loop_key list ->
  ?unroll:bool ->
  ?eager_signals:bool ->
  ?lint:bool ->
  ?sync_sched:bool ->
  ?profile_fault:
    (Profiler.Profile.dep_profile -> Profiler.Profile.dep_profile) ->
  source:string ->
  profile_input:int array ->
  memory_sync:memory_sync ->
  unit ->
  compiled

(** The untransformed program of the same source (sequential reference). *)
val original : source:string -> Ir.Prog.t

(** Deterministic identity of a compiled artifact (MD5 of the canonical
    program pretty-print).  Two compiles of the same source and
    configuration always produce the same digest; the serve layer keys
    its content-addressed artifact cache and its crash-safety
    (warm-vs-cold byte-equality) checks on it. *)
val artifact_digest : compiled -> string

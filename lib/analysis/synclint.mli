(** Static sync-placement verifier ("synclint") for the transformed IR.

    Runs after the scalar-sync and memory-sync passes and checks, per
    region and program-wide:

    - [dominance] — every checked load ([Sync_load]) is strictly dominated
      by a [Wait_mem] on its channel;
    - [signal-exactness] — every path from the region header to a loop
      latch signals each of the region's channels (guarded [_if_unsent]
      signals count);
    - [double-signal] — no second unconditional signal of a scalar or
      static-address memory channel in one epoch (eager pointer-group
      signals legitimately repeat);
    - [self-deadlock] — no wait on a channel the same epoch has already
      unconditionally signaled on every path;
    - [foreign-channel] — synchronization only on channels allocated to a
      region, and inside a region only on channels it (or a nested region
      containing the block) owns;
    - [dead-sync-group] — some producer store of each group may alias one
      of its consumer loads, per {!Pointsto};
    - [profile-under-coverage] — same-address store/load pairs in the
      region loop forming a may inter-epoch RAW that the dependence
      profile never observed and no earlier same-epoch store may cover.

    Errors are placement bugs; warnings flag dead or under-profiled
    synchronization worth a look. *)

type severity =
  | Error
  | Warning

type finding = {
  f_func : string;
  f_block : Ir.Instr.label option;
  f_iid : Ir.Instr.iid option;
  f_detector : string;    (* e.g. "dominance", "signal-exactness" *)
  f_severity : severity;
  f_message : string;
}

val severity_string : severity -> string

(** One-line rendering: [error: main/L3/i42: [dominance] ...]. *)
val to_string : finding -> string

(** Lint the whole program: all regions plus the program-wide dominance
    and channel-ownership checks.  [dep_profiles] (keyed like
    {!Tlscore.Pipeline.compiled.dep_profiles}) enables the profile
    coverage cross-check.  [pointsto] reuses a precomputed analysis of
    [prog] (valid across instruction reorderings, which cannot change the
    flow-insensitive facts); omitted, it is computed afresh. *)
val run_prog :
  ?pointsto:Pointsto.t ->
  ?dep_profiles:
    (Profiler.Profile.loop_key * Profiler.Profile.dep_profile) list ->
  Ir.Prog.t ->
  finding list

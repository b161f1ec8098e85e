(** Per-benchmark experiment context: the compiled configurations, the
    sequential reference, and cached oracle recordings.

    Conventions (paper §3.1, §4):
    - region selection always uses the train-input loop profile, so every
      configuration of a benchmark parallelizes the same loops;
    - the C build synchronizes dependences profiled on the ref input, the
      T build those profiled on train (Figure 8);
    - all timed runs execute the ref input;
    - normalized region execution time = 100 x (TLS region wall cycles /
      sequential region cycles of the ORIGINAL program), subdivided into
      busy/sync/fail/other by graduation-slot fractions (Figure 2). *)

type t = {
  w : Workloads.Workload.t;
  ref_output : int list;                  (* sequential reference output *)
  seq : Tls.Simstats.seq_result;          (* timed original, ref input *)
  seq_region_cycles : int;
  u : Tlscore.Pipeline.compiled;          (* scalar sync only *)
  t_build : Tlscore.Pipeline.compiled;    (* memory sync, train profile *)
  c : Tlscore.Pipeline.compiled;          (* memory sync, ref profile *)
  mutable oracle_u : Tls.Oracle.t option; (* lazy recordings *)
  mutable oracle_c : Tls.Oracle.t option;
}

(** Build everything for one workload (compiles, profiles, sequential
    timing).  Both memory-sync builds use the paper's 5% threshold,
    {!Tlscore.Pipeline.default_threshold}. *)
val make : Workloads.Workload.t -> t

val oracle_for_u : t -> Tls.Oracle.t
val oracle_for_c : t -> Tls.Oracle.t

(** Run a configuration and check its output against the sequential
    reference.  @raise Failure if outputs differ (a simulator bug). *)
val run :
  t ->
  Tls.Config.t ->
  Tlscore.Pipeline.compiled ->
  ?oracle:Tls.Oracle.t ->
  unit ->
  Tls.Simstats.result

(** Normalized region bar: (total, busy, sync, fail, other), all as
    percentages of the sequential region time. *)
val region_bar : t -> Tls.Simstats.result -> float * float * float * float * float

(** Fraction of sequential execution spent in the selected regions. *)
val coverage : t -> float

(** Whole-program speedup of a run vs the timed original. *)
val program_speedup : t -> Tls.Simstats.result -> float

(** Region speedup (sequential region cycles / TLS region cycles). *)
val region_speedup : t -> Tls.Simstats.result -> float

(** Sequential-region speedup (cycles outside regions, original vs TLS). *)
val seq_region_speedup : t -> Tls.Simstats.result -> float

(** Region selection (paper §3.1, "Deciding Where to Parallelize").

    A loop qualifies as a candidate if, in the loop profile:
    - it covers at least 0.1% of total execution,
    - it averages at least 1.5 epochs (iterations) per instance, and
    - it averages at least 15 instructions per epoch.

    Among candidates, loops are chosen greedily by estimated benefit
    (coverage x achievable overlap on 4 processors), skipping any loop that
    statically overlaps an already-chosen loop of the same function — the
    paper's requirement that selected regions not be nested within each
    other. *)

type candidate = {
  key : Profiler.Profile.loop_key;
  coverage : float;
  epochs_per_instance : float;
  instrs_per_epoch : float;
  benefit : float;
}

(** All loops that pass the three filters, best benefit first. *)
val candidates : Ir.Prog.t -> Profiler.Profile.t -> candidate list

(** The greedy non-overlapping choice. *)
val select :
  Ir.Prog.t ->
  Profiler.Profile.t ->
  Profiler.Profile.loop_key list

(** The instrumentation-based profiling tool (paper §1.1, §2.3).

    Runs the (untransformed) program sequentially while tracking:
    - every natural loop's instance/iteration/instruction counts, and
    - for each loop in [watch], all inter-epoch RAW memory dependences,
      naming each access by (static instruction id, call stack rooted at
      the loop) exactly as the paper describes.

    The runner is the software stand-in for the paper's binary
    instrumentation tool; it observes the same events (every load, store,
    and loop back edge). *)

(** [run prog ~input ~watch] profiles one execution.
    @param watch loops to collect dependence profiles for (may be empty).
    @raise Runtime.Thread.Step_limit if execution exceeds its budget of
    200M instructions.
    @raise Runtime.Thread.Unexpected_stop if execution blocks or suspends
    — impossible for well-formed programs under sequential hooks. *)
val run :
  Ir.Prog.t ->
  input:int array ->
  watch:Profile.loop_key list ->
  Profile.t

(** All natural-loop keys of a program (for region selection). *)
val all_loops : Ir.Prog.t -> Profile.loop_key list

(** Runtime-layer chaos for the real speculative executor ([mrvcc
    chaos exec], DESIGN §16).

    Crosses programs with the {!Specrt.fault} catalog and classifies
    each cell with the simulator matrix's discipline: absorbable faults
    (bounded commit delay, stolen timeslices, dropped forwarding-cell
    wakeups, transient epoch crashes) must leave output and final memory
    byte-identical to sequential execution; detectable faults (a commit
    delay past the watchdog, a persistently crashing epoch) must end in
    the matching typed error — never a hang, never a process death.

    The rendered table is byte-deterministic despite real concurrency:
    outcomes depend only on committed state and typed errors, which the
    runtime guarantees independent of scheduling. *)

type cell = {
  x_program : string;
  x_fault : string;            (* "none" for the baseline *)
  x_detectable : bool;
  x_outcome : Chaos.outcome;
}

(** Baseline plus every catalog fault for one program, in catalog
    order.  [log] receives one progress line per cell. *)
val run_program : ?log:(string -> unit) -> Chaos.program -> cell list

(** {!run_program} over many programs, cells in program order. *)
val run_matrix : ?log:(string -> unit) -> Chaos.program list -> cell list

(** Program × fault outcome grid, FAILED detail lines, and a tally. *)
val render_table : cell list -> string

val count_failed : cell list -> int

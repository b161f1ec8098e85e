(** Differential chaos harness: run a program's fault × mode matrix and
    classify every cell.

    For each (program, mode, fault) cell the harness runs the TLS
    simulator and compares against the sequential reference:
    - [Passed]: the no-fault baseline matched sequential output;
    - [Absorbed]: a fault was injected and the output still matched —
      the architecture absorbed it;
    - [Detected]: a detectable fault ended in {!Tls.Sim.Stuck} or
      {!Tls.Sim.Deadlock} (the message is kept);
    - [Skipped]: the fault had no applicable site, never armed, or the
      mode does not exercise that layer;
    - [Failed]: wrong output, a typed error from an absorbable fault, or
      a hang that reached the cycle budget instead of the watchdog.

    A matrix is healthy iff [count_failed] is zero. *)

type program = {
  p_name : string;
  p_source : string;
  p_train : int array;   (* profile input; also the default run input *)
  p_ref : int array;     (* run input for the stale-train fault *)
  p_select_main : bool;  (* force-select main's loops (generated programs) *)
}

type outcome =
  | Passed
  | Absorbed
  | Detected of string
  | Skipped
  | Failed of string

type cell = {
  c_program : string;
  c_mode : string;
  c_fault : string;                           (* "none" for the baseline *)
  c_class : Fault.classification option;      (* None for the baseline *)
  c_outcome : outcome;
}

(** U, C, H, B. *)
val default_modes : (string * Tls.Config.t) list

(** Compile a program the way every chaos cell does: its train input
    drives selection and the dependence profile (main's loops forced when
    [p_select_main]), memory sync at {!Tlscore.Pipeline.default_threshold},
    lint off.  [profile_fault] and [sync_sched] as in
    {!Tlscore.Pipeline.compile}. *)
val compile :
  ?profile_fault:
    (Profiler.Profile.dep_profile -> Profiler.Profile.dep_profile) ->
  ?sync_sched:bool ->
  program ->
  Tlscore.Pipeline.compiled

(** All cells for one program: the baseline plus every fault in [faults],
    under every mode.  [sync_sched] compiles every artifact (baseline,
    profile-fault recompiles, IR-mutation bases) with the sync scheduler
    on (default false). *)
val run_program :
  ?log:(string -> unit) ->
  ?sync_sched:bool ->
  modes:(string * Tls.Config.t) list ->
  faults:Fault.spec list ->
  program ->
  cell list

(** Like {!run_program} over many programs.  [map] (default [List.map])
    may be an order-preserving parallel mapper such as [Harness.Jobs];
    each program's log lines are buffered inside its job and replayed to
    [log] in program order after the matrix completes, so the logged
    bytes and the returned cells are identical for any mapper. *)
val run_matrix :
  ?log:(string -> unit) ->
  ?map:((program -> string list * cell list) ->
        program list ->
        (string list * cell list) list) ->
  ?sync_sched:bool ->
  modes:(string * Tls.Config.t) list ->
  faults:Fault.spec list ->
  program list ->
  cell list

(** [count] generated programs, seeds [seed, seed+count). *)
val fuzz_programs : count:int -> seed:int -> program list

(** Aggregated fault × mode table (counts over programs) followed by a
    detail line for every FAILED cell. *)
val render_table : cell list -> string

val count_failed : cell list -> int

(** {1 Capacity sweep}

    The finite-hardware degradation matrix (DESIGN §12): for each
    program × mode, run once unbounded to harvest each resource's peak
    occupancy, then halve that resource's limit (peak/2, peak/4, …, 0)
    until the run actually degrades (≥ 1 overflow/drop/backpressure
    event) and classify that first-triggering run:

    - signal-buffer and speculative-lines limits are {e absorbable}:
      the run must still match the sequential output ([Absorbed]);
    - the forwarding-queue limit is {e detectable}: a backpressure
      cycle must end in the typed {!Tls.Sim.Resource_deadlock} (or the
      watchdog's {!Tls.Sim.Stuck}) — [Detected];
    - a resource whose peak is 0, or that never triggers even at limit
      0, is [Skipped] (not exercisable for that program × mode);
    - anything else — wrong output, a typed error on an absorbable
      axis, or a run that reached the cycle budget (a hang the
      watchdog missed) — is [Failed]. *)

type capacity_axis =
  | Cap_sig_buffer    (** {!Tls.Config.t.sig_buffer_entries} *)
  | Cap_spec_stall    (** spec_lines_per_epoch under [Overflow_stall] *)
  | Cap_spec_squash   (** spec_lines_per_epoch under [Overflow_squash] *)
  | Cap_fwd_queue     (** {!Tls.Config.t.fwd_queue_depth} *)

(** All four axes, in table order. *)
val capacity_axes : capacity_axis list

val axis_name : capacity_axis -> string

type capacity_cell = {
  cc_program : string;
  cc_mode : string;
  cc_axis : capacity_axis;
  cc_peak : int;     (* unbounded-run peak occupancy of the resource *)
  cc_limit : int;    (* first (largest) halved limit that degraded *)
  cc_events : int;   (* degradation events observed at cc_limit *)
  cc_outcome : outcome;
}

(** Like {!run_matrix} for the capacity sweep: [map] and [log] have the
    same determinism contract (per-program log lines buffered and
    replayed in program order). *)
val run_capacity :
  ?log:(string -> unit) ->
  ?map:((program -> string list * capacity_cell list) ->
        program list ->
        (string list * capacity_cell list) list) ->
  ?sync_sched:bool ->
  modes:(string * Tls.Config.t) list ->
  program list ->
  capacity_cell list

(** One row per cell (program, mode, axis, peak, limit, events, outcome)
    plus a tally line and a detail line for every FAILED cell. *)
val render_capacity_table : capacity_cell list -> string

val count_capacity_failed : capacity_cell list -> int

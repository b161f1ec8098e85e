(** Real speculative execution of compiled TLS regions on OCaml 5 domains.

    Where {!Tls.Sim} *models* thread-level speculation cycle by cycle,
    this runtime actually runs epochs concurrently: each worker domain
    executes whole loop iterations speculatively against buffered write
    state, forwards values through IVar-style cells, detects cross-epoch
    conflicts at cache-line granularity, and rolls mis-speculation back
    by discarding the write buffer and restarting the epoch (DESIGN §16).

    Correctness does not rest on the racy fast paths: the epoch holding
    the homefree token re-validates every exposed read and every consumed
    forwarded value against committed state before draining its write
    buffer, and a failed validation squashes and re-runs the epoch as the
    oldest — with committed memory frozen and all channel values final —
    so the committed outcome is always byte-identical to sequential
    execution, whatever the interleaving did.

    Robustness surface: a wall-clock watchdog turns real hangs into the
    typed {!Specrt_stuck} (never a wedged process), per-epoch abort
    budgets turn livelock into the typed {!Abort_exhausted}, exceptions
    raised inside an epoch are contained (squash + non-speculative retry,
    never process death), and every commit/violation/squash/signal is
    recorded in an event log that {!run} can replay deterministically. *)

(** Runtime-layer fault injections ([chaos exec]).  All faults key on
    the epoch {e index} within a region instance and arm only in the
    first instance of the run, so outcomes are deterministic:
    - [Delay_commit]: the epoch sleeps [ms] while holding the homefree
      token.  Absorbed if [ms] is below the watchdog; a delay past the
      watchdog must end in {!Specrt_stuck}, never a hang.
    - [Yield_steps]: the epoch yields its timeslice every [every]
      instructions (stolen-timeslice perturbation).  Always absorbed.
    - [Drop_wakeup]: the epoch never observes its predecessor's
      speculative forwarding cell for [channel]; it self-heals once the
      predecessor commits (the committed cell cannot be dropped).
    - [Crash_epoch]: the epoch raises an injected exception shortly into
      its attempt; transient crashes are contained (squash + retry),
      [persistent] ones crash every retry and must exhaust the abort
      budget as the typed {!Abort_exhausted}. *)
type fault =
  | Delay_commit of { epoch : int; ms : int }
  | Yield_steps of { epoch : int; every : int }
  | Drop_wakeup of { epoch : int; channel : int }
  | Crash_epoch of { epoch : int; persistent : bool }

type event_kind =
  | Ev_commit
  | Ev_violation of string      (* validation failure, with reason *)
  | Ev_squash of string         (* attempt abort, with reason *)
  | Ev_signal of int            (* payload posted on a channel *)

(** One entry of the record/replay log, in global observation order.
    [(ev_instance, ev_index, ev_attempt)] names one attempt of one epoch
    deterministically across runs. *)
type event = {
  ev_seq : int;
  ev_instance : int;            (* region-instance activation number *)
  ev_index : int;               (* epoch index within the instance *)
  ev_attempt : int;             (* 1-based attempt of that epoch *)
  ev_kind : event_kind;
}

(** No commit, squash, or sequential progress for [watchdog_ms] of wall
    time: a real hang, reported as a typed error with a per-epoch
    snapshot instead of a wedged process.  Exit code 10. *)
exception Specrt_stuck of { watchdog_ms : int; detail : string }

(** An epoch was squashed more than [max_aborts] times (only reachable
    when retries cannot succeed, e.g. a persistent injected crash).
    Exit code 11. *)
exception Abort_exhausted of { instance : int; index : int; aborts : int;
                               max_aborts : int }

(** The sync protocol wedged: an epoch waits on a channel its committed
    predecessor never signaled (the runtime analogue of
    {!Tls.Sim.Deadlock}).  Exit code 3. *)
exception Exec_deadlock of string

type opts = {
  domains : int;                (* worker domains; 1 = serial in-order *)
  watchdog_ms : int;
  max_aborts : int;             (* per-epoch squash budget *)
  perturb_seed : int option;    (* deterministic schedule perturbation *)
  faults : fault list;
  replay : event list option;
      (* run serially, forcing the recorded squashes/violations so a
         nondeterministic failure reproduces deterministically *)
}

(** [domains = cfg.num_procs], 10 s watchdog, 64-abort budget, no
    perturbation, no faults, no replay. *)
val default_opts : Tls.Config.t -> opts

type result = {
  r_output : int list;
  r_final_memory : Runtime.Memory.t;
  r_epochs_committed : int;     (* deterministic: matches Tls.Sim *)
  r_epochs_squashed : int;      (* scheduling-dependent *)
  r_violations : int;           (* scheduling-dependent *)
  r_region_instances : (int * int) list;   (* region id -> activations *)
  r_domains : int;
  r_events : event list;        (* observation order *)
}

(** Execute the compiled program, running every speculative region on
    [opts.domains] worker domains.
    @raise Specrt_stuck on a real hang (watchdog).
    @raise Abort_exhausted when an epoch exceeds its abort budget.
    @raise Exec_deadlock on a broken sync protocol. *)
val run : ?opts:opts -> Tls.Config.t -> Runtime.Code.t ->
  input:int array -> result

(** {2 Replay-log serialization}

    One JSON object per line, fixed key order
    [{"seq":..,"instance":..,"epoch":..,"attempt":..,"kind":"..",
    "detail":"..","channel":..}].  {!read_log} is tolerant: lines that do
    not parse (e.g. a truncated tail) are skipped, so a cut-short log
    still replays its prefix — shrinking a failure is just truncating
    its log. *)

val write_log : string -> event list -> unit
val read_log : string -> event list
val event_to_line : event -> string

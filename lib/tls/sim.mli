(** The TLS chip-multiprocessor simulator.

    Trace-driven and cycle-stepped: each simulated processor graduates up
    to [issue_width] instructions per cycle from the epoch it is running,
    with latencies from {!Memsys} and stalls from synchronization.
    Sequential program phases run on processor 0 with the same pipeline
    model; reaching a parallelized loop header switches to TLS mode.

    Speculation model (DESIGN.md §4):
    - epochs buffer stores; speculative loads read committed memory
      overlaid with the epoch's own writes;
    - violations are detected at store time (line in a younger epoch's
      speculative-load set) and at commit time (write set vs younger load
      sets); a violated epoch and all younger epochs squash and restart;
    - compiler-forwarded values travel point-to-point over channels with
      {!Config.t.forward_latency}; the signal address buffer violates the
      consumer when the producer stores to an already-signaled address;
    - epochs commit in order; a committed epoch whose exit leaves the loop
      ends the region instance and discards all younger epochs. *)

exception Deadlock of string

(** Snapshot of one in-flight epoch at the moment the simulator got stuck. *)
type epoch_diag = {
  ed_index : int;
  ed_status : string;             (* "running" / "done" / ... *)
  ed_blocked : bool;
  ed_wake_at : int;               (* max_int = polling with no known wake *)
  ed_last_block : Ir.Instr.channel option;
  ed_sent : Ir.Instr.channel list;
  ed_consumed : Ir.Instr.channel list;
}

type stuck_reason =
  | No_progress of { window : int }
      (** The watchdog: no instruction graduated and no epoch committed
          for [window] consecutive cycles. *)
  | Missing_wait of { channel : Ir.Instr.channel; iid : Ir.Instr.iid }
      (** A [Sync_load] consumed a channel nothing was ever received on,
          i.e. no dominating [Wait_mem] ran — the dynamic counterpart of
          synclint's dominance check.  Only raised under [Forward_normal]
          with {!Config.t.filter_useless_sync} off, since filtering
          legitimately elides waits. *)

(** Why and where a TLS region wedged: the typed diagnostic carried by
    {!Stuck} (DESIGN §11). *)
type stuck_diag = {
  sd_reason : stuck_reason;
  sd_cycle : int;
  sd_region : int;                (* region id *)
  sd_func : string;               (* function owning the region *)
  sd_oldest : int;                (* oldest (next-to-commit) epoch index *)
  sd_epochs : epoch_diag list;    (* all in-flight epochs, oldest first *)
}

(** Raised instead of spinning to the cycle budget when a region stops
    making progress, and by the dynamic sync-protocol check. *)
exception Stuck of stuck_diag

(** Raised by {!run} / {!run_sequential} when the cycle budget
    {!Config.t.max_cycles} is exhausted —
    a genuinely non-terminating program, since protocol failures surface
    as {!Stuck} or {!Deadlock} long before. *)
exception Cycle_limit of { max_cycles : int; cycle : int; where : string }

(** A backpressure cycle under a finite {!Config.t.fwd_queue_depth}
    (DESIGN §12): a producer was stalled on a full forwarding queue when
    the progress watchdog expired, i.e. the consumer side can never drain
    the queue.  Raised in place of {!Stuck} — detection latency is
    bounded by the watchdog window, so a full queue can degrade
    throughput but never hang the simulator. *)
type resource_diag = {
  rd_cycle : int;
  rd_region : int;                (* region id *)
  rd_func : string;               (* function owning the region *)
  rd_producer : int;              (* backpressure-stalled producer epoch *)
  rd_channel : Ir.Instr.channel;  (* channel it cannot enqueue *)
  rd_depth : int;                 (* configured fwd_queue_depth *)
  rd_epochs : epoch_diag list;    (* all in-flight epochs, oldest first *)
}

exception Resource_deadlock of resource_diag

(** One-line rendering of a {!stuck_diag} for CLI error messages. *)
val describe_stuck : stuck_diag -> string

(** One-line rendering of a {!resource_diag} for CLI error messages. *)
val describe_resource_deadlock : resource_diag -> string

(** Run a whole program under TLS.
    @param oracle required when [cfg.oracle <> Oracle_none] or
    [cfg.forward_timing = Forward_perfect].
    @raise Deadlock on a synchronization protocol violation (a consumer
    waits on a channel its completed predecessor never signaled).
    @raise Stuck when a region makes no progress for
    [cfg.watchdog_window] cycles or a protocol check fails.
    @raise Cycle_limit when the cycle budget [cfg.max_cycles] is
    exhausted.
    @raise Resource_deadlock when a finite forwarding queue backpressures
    a producer into a cycle (detected at watchdog expiry). *)
val run :
  Config.t ->
  Runtime.Code.t ->
  input:int array ->
  ?oracle:Oracle.t ->
  unit ->
  Simstats.result

(** Sequential timed run (1 processor, same pipeline/cache model), tracking
    cycles inside the loop extents of [track] — used to time the original
    program as the normalization baseline.
    @raise Cycle_limit when the cycle budget [cfg.max_cycles] is
    exhausted. *)
val run_sequential :
  Config.t ->
  Runtime.Code.t ->
  input:int array ->
  track:Ir.Region.t list ->
  Simstats.seq_result

(** Domain-based worker pool for the embarrassingly parallel experiment
    matrices (per-figure cells, chaos cells, bench phases).

    Design constraints, in order:
    - {b determinism}: [map] always returns results in input order, and a
      parallel map must be observably identical to [List.map] — callers
      are required to pass jobs that do not share mutable state or print;
    - {b isolation}: each map call spawns fresh domains and tears them
      down afterwards, so no heap state leaks from one batch into the
      next and a crashed job cannot poison a long-lived worker;
    - {b graceful degradation}: [jobs <= 1], a single-item list, or a
      failed [Domain.spawn] (resource limits) all fall back to running
      jobs in the calling domain.

    Scheduling is a Domainslib-style single shared work queue: workers
    repeatedly claim the next unclaimed index with an atomic
    fetch-and-add, so long-running cells load-balance instead of being
    pre-partitioned. *)

type t = {
  jobs : int;  (** requested worker count (1 = serial) *)
  map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list;
      (** Order-preserving map.  If any job raises, the exception of the
          lowest-index failing item is re-raised (with its backtrace)
          after all workers have drained — the same exception [List.map]
          would have surfaced first. *)
}

(** One scheduled attempt of a retried job: the deadline it ran under
    and the backoff slept before it (0 for the first attempt). *)
type attempt = { at_timeout_s : float; at_backoff_s : float }

(** A job exceeded its per-job timeout on every attempt of its
    [?retries] budget.  [index] is the job's position in the input list,
    so a failed matrix run names the exact cell that wedged; [attempts]
    is the full deterministic schedule that was tried (oldest first), so
    it also reports exactly which deadlines were granted. *)
exception Retries_exhausted of { index : int; attempts : attempt list }

(** The pool's own invariant broke: a result slot could not be filled
    even by the inline recovery pass (see the worker-death contract on
    {!create}).  Job exceptions never surface as this — they re-raise
    as themselves, lowest index first. *)
exception Pool_failure of { reason : string }

(** Run everything in the calling domain ([jobs = 1]). *)
val serial : t

(** A pool of [jobs] workers; [create ~jobs:1] (or less, with no
    [timeout]) is {!serial}.  The calling domain participates as one of
    the workers, so [jobs = 4] spawns 3 domains.

    [?timeout] bounds each job's wall time in seconds.  A job past its
    deadline is abandoned (OCaml domains cannot be killed — the stray
    computation finishes on its own cycle budget) and retried under the
    deterministic schedule [attempt_plan ~timeout_s:timeout ~backoff_s:0
    ~retries]: attempt [k] (0-based, [retries + 1] attempts total, no
    sleep between them) runs under a deadline of [timeout * 2^k].
    [?retries] defaults to 0, a single attempt.  When every attempt
    times out the job's outcome becomes {!Retries_exhausted}; the rest
    of the matrix still completes, in input order, and the lowest-index
    error is the one re-raised.  A timed-out attempt surfaces within its
    deadline plus one poll interval (~2ms).

    Worker-death contract: a domain that dies from an exception raised
    outside a job (the jobs' own exceptions are slotted as results)
    never orphans queued work and never masks slotted results — after
    all workers are joined, a self-check re-runs every unslotted item
    inline in the calling domain, so either every result is present (in
    input order, job errors re-raised lowest index first as always) or
    the typed {!Pool_failure} is raised.  [?worker_fault] is the fault
    hook that regression-tests this contract: it is called with each
    claimed index before the job runs, and an exception it raises kills
    that worker the way an unexpected infrastructure failure would. *)
val create :
  ?timeout:float ->
  ?retries:int ->
  ?worker_fault:(int -> unit) ->
  jobs:int ->
  unit ->
  t

(** [attempt_plan ~timeout_s ~backoff_s ~retries] is the deterministic
    retry schedule: attempt [k] runs under [timeout_s * 2^k] after
    sleeping [backoff_s * 2^(k-1)] (never before the first attempt).
    [create ~retries] runs it with [~backoff_s:0]; the serve layer runs
    it with its own backoff.  Exposed so callers and tests can reason
    about it without running anything. *)
val attempt_plan :
  timeout_s:float -> backoff_s:float -> retries:int -> attempt list

(** [with_deadline ~timeout_s f x] runs one computation under a wall
    deadline on a monitor domain: [Some (Ok v)] / [Some (Error ...)] if
    it finished, [None] if it was abandoned at the deadline (the stray
    domain finishes on its own).  The building block the serve layer's
    per-request deadlines are made of. *)
val with_deadline :
  timeout_s:float ->
  ('a -> 'b) ->
  'a ->
  ('b, exn * Printexc.raw_backtrace) result option

(** One-shot convenience: [(create ~jobs).map f items]. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** What the host advertises ([Domain.recommended_domain_count]). *)
val available : unit -> int

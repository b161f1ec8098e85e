(** Service-layer faults for the compile service (DESIGN §14), extending
    the PR2 fault catalog one layer up: instead of lying profiles, broken
    IR or a misbehaving machine, these model a misbehaving {e serving}
    environment — slow jobs, flaky I/O, corrupted cache entries and burst
    arrivals.

    Request-level kinds are injected by naming the fault in a request's
    ["fault"] field; the service's executor consults {!Slow_job} /
    {!Transient_io} / {!Always_transient} hooks per attempt.
    Harness-level kinds ({!Cache_corrupt}, {!Burst}) are injected by the
    chaos harness around the request stream — corrupting entry bytes on
    disk, or collapsing arrivals into one admission tick.

    Like the PR2 catalog, every kind carries the outcome class the chaos
    matrix asserts: the service must resolve each cell to
    absorbed/degraded/detected — never a hang, never wrong output. *)

type kind =
  | Slow_job
      (** The executor sleeps past the request deadline on {e every}
          attempt.  Detected: the response must be a typed
          [deadline] after the bounded retry schedule — never a hang. *)
  | Transient_io
      (** The first attempt raises a transient I/O error; later attempts
          succeed.  Absorbed: the deterministic retry completes
          the request with a correct, cache-consistent result. *)
  | Always_transient
      (** Every attempt raises a transient error.  Degraded when a
          last-known-good artifact exists (served stale, marked
          degraded — the service-layer analogue of the NULL-signal
          fallback); a typed error response otherwise. *)
  | Cache_corrupt
      (** Entry bytes are flipped on disk between requests.  Absorbed:
          startup/read validation must detect the bad digest, quarantine
          the entry and recompute — a poisoned cache never poisons a
          response. *)
  | Burst
      (** All requests arrive in a single admission tick, exceeding the
          bounded queue.  Detected: the overflow is shed with typed
          rejections (mirroring Overflow_squash at the service layer);
          admitted requests still complete correctly. *)

(** Expected chaos-cell resolution. *)
type expectation = Expect_absorbed | Expect_degraded | Expect_detected

type spec = { sf_name : string; sf_kind : kind; sf_expect : expectation }

val catalog : spec list

val find : string -> spec option

val expectation_name : expectation -> string

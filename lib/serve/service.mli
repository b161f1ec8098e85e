(** The persistent compile service (DESIGN §14): a bounded-admission,
    deadline-bounded, cache-backed executor for {!Request.t} streams.

    Scheduling is tick-based and fully deterministic: each request
    carries an admission tick (defaulting to its arrival index), arrivals
    of one tick are admitted into a bounded queue — overflow is {e shed}
    with a typed [shed] response, never silently dropped — and up to
    [sc_rate] queued requests are dispatched per tick onto a
    {!Harness.Jobs} pool.

    Each dispatched request runs under the {!Harness.Jobs.attempt_plan}
    schedule: attempt [k] gets a wall deadline of [deadline * 2^k] (via
    {!Harness.Jobs.run_with_deadline}), with no sleep between attempts.
    Transient faults are retried; typed compiler/simulator errors
    are not (they would fail identically); a request whose every attempt
    misses its deadline resolves to a typed [deadline] response.

    Degradation ladder (the service-layer NULL-signal fallback): exact
    cache hit → compute → last-known-good artifact served [degraded]
    with cache disposition [stale] → typed error.  Artifacts are stored
    through {!Cache.store} (temp + fsync + rename), so a crash
    mid-store can never corrupt a served artifact. *)

(** Raised by an executor attempt on an injected or environmental
    transient fault; the only exception class the retry loop retries. *)
exception Transient of string

type config = {
  sc_cache_dir : string option;  (* None = caching off *)
  sc_queue : int;                (* admission queue capacity, >= 1 *)
  sc_rate : int;                 (* dispatches per tick, >= 1 *)
  sc_jobs : int;                 (* worker pool width, >= 1 *)
  sc_deadline_s : float;         (* default per-request deadline *)
  sc_retries : int;              (* extra attempts after the first *)
  sc_timing : bool;              (* emit wall_ns in responses *)
}

(** queue 8, rate 2, jobs 2, deadline 10s, 1 retry, timing on, cache at
    [_mrvcc_cache]. *)
val default_config : config

type stats = {
  st_requests : int;
  st_ok : int;
  st_degraded : int;
  st_shed : int;
  st_deadline : int;
  st_error : int;
  st_cache_hits : int;     (* responses resolved by an exact cache hit *)
  st_cache_misses : int;   (* responses computed after an exact miss *)
  st_cache_stale : int;    (* responses served from last-known-good *)
  st_quarantined : string list;  (* entries quarantined at startup *)
  st_cache : Cache.stats option; (* raw cache counters, None = cache off *)
}

type outcome = {
  so_responses : Request.response list;  (* in request order *)
  so_stats : stats;
}

(** Resolve a request's program text and input vector ([Error] on an
    unknown benchmark). *)
val resolve : Request.t -> (string * int array, string) result

(** The exact content-address of a request's artifact (program source,
    op, input, mode, threshold, sync-sched, fault) — exposed so the
    chaos harness can corrupt precisely this entry on disk. *)
val exact_key : Request.t -> source:string -> input:int array -> string

(** Run a whole request stream to completion.  Never raises on a
    per-request failure: every request gets exactly one typed response.
    Raises [Invalid_argument] on a config outside its documented ranges
    (queue, rate or jobs below 1, a deadline not > 0, negative
    retries). *)
val run : config -> Request.t list -> outcome

(** Driver exit code: [1] if any [error] response, else [8] if any
    request was shed, else [9] if any deadline was exceeded, else
    [0]. *)
val exit_code : stats -> int

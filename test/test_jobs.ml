(* Per-job timeouts in the Harness.Jobs pool (DESIGN §12 satellite):
   a wedged job must surface as Retries_exhausted naming its input index
   — within roughly the bound, never a hang — while every other job
   still completes and results keep input order.  [?retries] grants
   further attempts at doubling bounds. *)

let check_int = Alcotest.(check int)

(* A job that spins [s] seconds of wall time (not sleep: a sleeping
   domain would also be descheduled by the monitor, but spinning is the
   honest model of a wedged simulation). *)
let spin s x =
  let until = Unix.gettimeofday () +. s in
  while Unix.gettimeofday () < until do
    ignore (Sys.opaque_identity (x * x))
  done;
  x

let timeout_fires () =
  (* Job 2 of five spins far past the 50ms bound; the rest are instant.
     With no retries the pool must raise Retries_exhausted for index 2
     (the lowest-index error) after a single attempt, once the other
     four completed. *)
  let pool = Harness.Jobs.create ~timeout:0.05 ~jobs:2 () in
  let completed = Atomic.make 0 in
  let job x =
    if x = 2 then ignore (spin 2.0 x)
    else begin
      Atomic.incr completed;
      ignore (Sys.opaque_identity x)
    end;
    x * 10
  in
  let t0 = Unix.gettimeofday () in
  (match pool.Harness.Jobs.map job [ 0; 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected Retries_exhausted"
  | exception Harness.Jobs.Retries_exhausted { index; attempts } ->
    check_int "timed-out job is named by input index" 2 index;
    Alcotest.(check (list (float 1e-9)))
      "one attempt, under the configured bound" [ 0.05 ]
      attempts);
  let elapsed = Unix.gettimeofday () -. t0 in
  (* Surfacing must be bounded: well before the 2s spin finishes.  (The
     abandoned domain keeps spinning in the background; we only assert
     when the *caller* got its answer.) *)
  Alcotest.(check bool)
    (Printf.sprintf "surfaced in %.3fs, within 2x-ish of the bound" elapsed)
    true (elapsed < 1.5);
  check_int "all other jobs completed" 4 (Atomic.get completed)

let retry_succeeds () =
  (* First attempt exceeds the 100ms bound, the retry (double budget)
     finishes: the map must succeed, in order, with two attempts made. *)
  let attempts = Atomic.make 0 in
  let job x =
    if x = 1 then begin
      let n = Atomic.fetch_and_add attempts 1 in
      if n = 0 then ignore (spin 0.5 x) else ignore (spin 0.01 x)
    end;
    x + 100
  in
  let pool = Harness.Jobs.create ~timeout:0.1 ~retries:1 ~jobs:2 () in
  Alcotest.(check (list int))
    "retry rescues the slow job, order preserved" [ 100; 101; 102 ]
    (pool.Harness.Jobs.map job [ 0; 1; 2 ]);
  check_int "exactly two attempts at the slow job" 2 (Atomic.get attempts)

let retry_exhausted () =
  (* Both the attempt and its doubled-budget retry spin past the bound:
     Retries_exhausted, and exactly two attempts were made. *)
  let attempts = Atomic.make 0 in
  let job x =
    if x = 0 then begin
      Atomic.incr attempts;
      ignore (spin 2.0 x)
    end;
    x
  in
  let pool = Harness.Jobs.create ~timeout:0.05 ~retries:1 ~jobs:1 () in
  (match pool.Harness.Jobs.map job [ 0; 1 ] with
  | _ -> Alcotest.fail "expected Retries_exhausted"
  | exception Harness.Jobs.Retries_exhausted { index; _ } ->
    check_int "names the wedged index" 0 index);
  (* The second attempt may still be starting when the error surfaces;
     give the monitor domain a beat before counting. *)
  Unix.sleepf 0.05;
  check_int "one attempt + one retry" 2 (Atomic.get attempts)

let attempt_plan_schedule () =
  (* The schedule is a pure function: attempt k runs under timeout*2^k. *)
  let plan = Harness.Jobs.attempt_plan ~timeout_s:0.1 ~retries:3 in
  check_int "retries=3 means four attempts" 4 (List.length plan);
  List.iteri
    (fun k timeout_s ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "attempt %d timeout" k)
        (0.1 *. (2.0 ** float_of_int k))
        timeout_s)
    plan;
  (* Determinism: the same inputs always yield the identical schedule. *)
  Alcotest.(check bool)
    "schedule is reproducible" true
    (plan = Harness.Jobs.attempt_plan ~timeout_s:0.1 ~retries:3)

let retries_exhausted_carries_history () =
  (* Every attempt spins past its (growing) deadline: the pool must give
     up with Retries_exhausted naming the index and the full schedule it
     granted. *)
  let attempts_made = Atomic.make 0 in
  let job x =
    if x = 1 then begin
      Atomic.incr attempts_made;
      ignore (spin 2.0 x)
    end;
    x
  in
  let pool = Harness.Jobs.create ~timeout:0.04 ~retries:2 ~jobs:1 () in
  (match pool.Harness.Jobs.map job [ 0; 1; 2 ] with
  | _ -> Alcotest.fail "expected Retries_exhausted"
  | exception Harness.Jobs.Retries_exhausted { index; attempts } ->
    check_int "names the wedged index" 1 index;
    check_int "history covers retries+1 attempts" 3 (List.length attempts);
    Alcotest.(check bool)
      "history matches the published plan" true
      (attempts = Harness.Jobs.attempt_plan ~timeout_s:0.04 ~retries:2));
  Unix.sleepf 0.05;
  check_int "all three attempts were actually run" 3
    (Atomic.get attempts_made)

let retries_rescues_flaky_job () =
  (* Attempt 0 wedges, attempt 1 (double deadline) is instant: retries
     must rescue the job and the map succeed in order. *)
  let attempts = Atomic.make 0 in
  let job x =
    if x = 0 then begin
      let n = Atomic.fetch_and_add attempts 1 in
      if n = 0 then ignore (spin 0.5 x)
    end;
    x * 2
  in
  let pool = Harness.Jobs.create ~timeout:0.1 ~retries:2 ~jobs:2 () in
  Alcotest.(check (list int))
    "second attempt lands, order preserved" [ 0; 2; 4 ]
    (pool.Harness.Jobs.map job [ 0; 1; 2 ]);
  check_int "stopped after the first success" 2 (Atomic.get attempts)

let no_timeout_unchanged () =
  (* Without ?timeout the pool is the plain deterministic mapper. *)
  let pool = Harness.Jobs.create ~jobs:3 () in
  Alcotest.(check (list int))
    "plain parallel map" [ 0; 1; 4; 9; 16 ]
    (pool.Harness.Jobs.map (fun x -> x * x) [ 0; 1; 2; 3; 4 ])

(* Worker-death contract: a domain dying mid-queue must not orphan the
   items it would have claimed — the pool self-check re-runs them inline
   and the map still returns every result, in input order. *)
let dead_worker_orphans_nothing () =
  let killed = Atomic.make false in
  let worker_fault i =
    (* Kill exactly one worker, whichever claims item 3. *)
    if i = 3 && not (Atomic.exchange killed true) then
      failwith "injected worker death"
  in
  let items = List.init 32 Fun.id in
  let pool = Harness.Jobs.create ~worker_fault ~jobs:4 () in
  Alcotest.(check (list int))
    "all results slotted despite a dead worker"
    (List.map (fun x -> x * x) items)
    (pool.Harness.Jobs.map (fun x -> x * x) items);
  Alcotest.(check bool) "the fault actually fired" true (Atomic.get killed)

(* A job error must still re-raise as itself (lowest index first), not
   be masked by a sibling domain's death. *)
let dead_worker_does_not_mask_job_error () =
  let killed = Atomic.make false in
  let worker_fault i =
    if i = 1 && not (Atomic.exchange killed true) then
      failwith "injected worker death"
  in
  let pool = Harness.Jobs.create ~worker_fault ~jobs:4 () in
  match
    pool.Harness.Jobs.map
      (fun x -> if x = 5 then raise Exit else x)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected the job's own exception"
  | exception Exit -> Alcotest.(check bool) "fault fired" true (Atomic.get killed)
  | exception e ->
    Alcotest.fail ("job error was masked by: " ^ Printexc.to_string e)

(* Every worker dying still drains the whole queue via the recovery
   pass in the calling domain. *)
let all_workers_die_queue_drains () =
  let worker_fault _ = failwith "injected worker death" in
  let items = List.init 12 Fun.id in
  let pool = Harness.Jobs.create ~worker_fault ~jobs:4 () in
  Alcotest.(check (list int))
    "recovery pass completes the map"
    (List.map succ items)
    (pool.Harness.Jobs.map succ items)

let () =
  Alcotest.run "jobs"
    [
      ( "timeout",
        [
          Alcotest.test_case "fires with the input index" `Quick timeout_fires;
          Alcotest.test_case "retry at double budget succeeds" `Quick
            retry_succeeds;
          Alcotest.test_case "retry exhausted still times out" `Quick
            retry_exhausted;
          Alcotest.test_case "no timeout: plain map" `Quick no_timeout_unchanged;
        ] );
      ( "retries",
        [
          Alcotest.test_case "attempt plan is deterministic exponential"
            `Quick attempt_plan_schedule;
          Alcotest.test_case "exhaustion carries attempt history" `Quick
            retries_exhausted_carries_history;
          Alcotest.test_case "retries rescue a flaky job" `Quick
            retries_rescues_flaky_job;
        ] );
      ( "pool-self-check",
        [
          Alcotest.test_case "dead worker orphans nothing" `Quick
            dead_worker_orphans_nothing;
          Alcotest.test_case "dead worker does not mask a job error" `Quick
            dead_worker_does_not_mask_job_error;
          Alcotest.test_case "all workers dead: queue still drains" `Quick
            all_workers_die_queue_drains;
        ] );
    ]

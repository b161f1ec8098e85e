(* A hand-rolled Domain worker pool (no Domainslib dependency).

   One shared work queue: [next] is the index of the first unclaimed
   item; every worker — the spawned domains plus the calling domain —
   loops on an atomic fetch-and-add claiming one item at a time.  That
   gives dynamic load balancing (a slow cell does not stall a whole
   pre-assigned chunk) while keeping results slotted by input index, so
   the output order never depends on completion order.

   Exceptions: each job's outcome is stored as a [result]; after every
   worker has drained the queue, the error of the lowest-index failing
   item is re-raised with its original backtrace.  This matches serial
   [List.map] semantics, where the first failing item (in input order)
   is the one whose exception escapes. *)

type t = {
  jobs : int;
  map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list;
}

exception Retries_exhausted of { index : int; attempts : float list }
exception Pool_failure of { reason : string }

let available () = Domain.recommended_domain_count ()

let serial_map f items = List.map f items

(* Per-job timeout enforcement.  OCaml domains cannot be killed, so the
   job runs in a monitor domain that publishes its outcome through an
   [Atomic] slot while the worker polls with a deadline.  On expiry the
   monitor domain is abandoned — it keeps computing until it finishes on
   its own (all our jobs carry their own cycle budgets, so runaways are
   bounded) — and the job moves on to its next attempt, or its slot
   becomes [Retries_exhausted].  A failed spawn (resource limits)
   degrades to running the job inline, without enforcement, rather than
   losing the result. *)
let poll_interval_s = 0.002

let run_with_deadline ~timeout_s f x =
  let slot = Atomic.make None in
  match
    Domain.spawn (fun () ->
        let outcome =
          try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Atomic.set slot (Some outcome))
  with
  | exception _ ->
    Some (try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ()))
  | d ->
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec poll () =
      match Atomic.get slot with
      | Some outcome ->
        Domain.join d;
        Some outcome
      | None ->
        if Unix.gettimeofday () >= deadline then None
        else begin
          Unix.sleepf poll_interval_s;
          poll ()
        end
    in
    poll ()

(* The deterministic retry schedule: attempt [k] (0-based) runs under a
   deadline of [timeout_s * 2^k].  No jitter: the same inputs always
   produce the same schedule, so test expectations and chaos matrices
   are reproducible. *)
let attempt_plan ~timeout_s ~retries =
  List.init (retries + 1) (fun k -> timeout_s *. Float.of_int (1 lsl k))

(* A job under a timeout runs its [attempt_plan] until one attempt
   finishes: a transiently slow host (GC pause, noisy neighbour) gets
   another chance at a larger bound, while a genuinely wedged job
   exhausts the plan. *)
let run_with_retries ~index ~timeout_s ~retries f x =
  let plan = attempt_plan ~timeout_s ~retries in
  let rec go = function
    | [] ->
      Error
        ( Retries_exhausted { index; attempts = plan },
          Printexc.get_callstack 0 )
    | timeout_s :: rest -> (
      match run_with_deadline ~timeout_s f x with
      | Some outcome -> outcome
      | None -> go rest)
  in
  go plan

let parallel_map ?timeout ?worker_fault ~retries ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let run i =
    match timeout with
    | None -> (
      try Ok (f arr.(i)) with e -> Error (e, Printexc.get_raw_backtrace ()))
    | Some timeout_s -> run_with_retries ~index:i ~timeout_s ~retries f arr.(i)
  in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match worker_fault with Some hook -> hook i | None -> ());
      slots.(i) <- Some (run i);
      worker ()
    end
  in
  (* A worker body never lets an exception reach [Domain.join]: job
     exceptions are already slotted by [run], and anything else — a
     dying domain — is recorded here so the join below cannot re-raise
     a raw sibling failure that would mask slotted results. *)
  let worker_err = Atomic.make None in
  let guarded_worker () =
    try worker ()
    with e -> ignore (Atomic.compare_and_set worker_err None (Some e))
  in
  (* The calling domain is worker number [jobs]; a failed spawn (fd or
     thread limits) just means fewer helpers — the queue still drains. *)
  let helpers =
    let rec spawn k acc =
      if k <= 0 then acc
      else
        match Domain.spawn guarded_worker with
        | d -> spawn (k - 1) (d :: acc)
        | exception _ -> acc
    in
    spawn (min (jobs - 1) (n - 1)) []
  in
  guarded_worker ();
  List.iter Domain.join helpers;
  (* Pool self-check: a dead worker must not orphan queued work.  Any
     unslotted item — claimed by a dying worker, or never claimed
     because the workers died before draining the queue — is run inline
     here, in the calling domain, without the fault hook.  Only if that
     recovery itself cannot complete does the typed pool error escape. *)
  (try
     Array.iteri
       (fun i slot -> if slot = None then slots.(i) <- Some (run i))
       slots
   with e ->
     raise (Pool_failure { reason = "recovery failed: " ^ Printexc.to_string e }));
  Array.iteri
    (fun i slot ->
      match slot with
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ignore i)
    slots;
  Array.to_list
    (Array.map
       (function
         | Some (Ok v) -> v
         | Some (Error _) | None ->
           (* Unreachable after the self-check, but never a bare assert:
              an unfilled slot is a pool invariant failure, typed. *)
           raise (Pool_failure { reason = "result slot left empty" }))
       slots)

let serial = { jobs = 1; map = serial_map }

let create ?timeout ?(retries = 0) ?worker_fault ~jobs () =
  if jobs <= 1 && timeout = None && worker_fault = None then serial
  else
    let retries = max 0 retries in
    let jobs = max 1 jobs in
    {
      jobs;
      map =
        (fun f items ->
          parallel_map ?timeout ?worker_fault ~retries ~jobs f items);
    }

let map ~jobs f items = (create ~jobs ()).map f items

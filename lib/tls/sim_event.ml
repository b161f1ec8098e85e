(* The event-driven simulator core (DESIGN §15).

   Same observable semantics as {!Sim_ref} — the differential suite
   (test_sim_diff) enforces byte equality of fingerprints, slot
   counters, per-channel attributions, resource peaks and typed errors —
   rebuilt around:

   - a ring of mutable epoch slots (window [ts_oldest-1, ts_next_spawn))
     instead of a per-instance hash table of epochs,
   - preallocated {!Scratch} int->int maps for the per-attempt
     speculative state (write buffer, exposed-read set, footprint lines,
     oracle occurrence counters) with O(1) generation-based reset,
   - a direct instruction dispatcher replacing the Thread.step + hook
     closures (no outcome/event allocation per graduated instruction),
   - parked pollers: a blocked wait re-polls only when its wake time
     arrives or a producer-side event dirties the park, instead of
     re-executing the wait every cycle (the per-cycle charge an epoch
     would have accrued is applied eagerly, so the accounting is
     byte-identical),
   - a next-interesting-cycle skip over the live epoch window.  The
     skip decisions themselves are exactly the reference engine's:
     [fast_forward] only jumps when no epoch can act, to the same cycle
     the reference's linear scan would find (the minimum wake time over
     the window).

   The one observable-order-sensitive table, the commit-time
   [write_lines] scan, deliberately stays a stdlib [Hashtbl] fed the
   exact same operation sequence as the reference engine, so its
   iteration order (and hence violation attribution) matches. *)

include Simdiag

module Int_set = Set.Make (Int)

type payload =
  | P_scalar of int
  | P_mem of int * int          (* address (0 = NULL), value *)

type sent_entry = { se_payload : payload; se_avail : int }

type estatus = Running | Done | Committed | Discarded

(* Status tests as pattern matches: [status_running e.status] would compile
   to the polymorphic [caml_equal], a C call the per-cycle scans pay
   several times per simulated cycle. *)
let[@inline] status_running = function Running -> true | _ -> false
let[@inline] status_done = function Done -> true | _ -> false
let[@inline] status_live = function Running | Done -> true | _ -> false

type exitkind = Exit_back | Exit_out of int | Exit_return of int option

type epoch = {
  mutable ep_index : int;
  mutable ep_thread : Runtime.Thread.t;
  mutable status : estatus;
  mutable exitk : exitkind option;
  spec_writes : Scratch.t;              (* addr -> value *)
  read_lines : Scratch.t;               (* key -> first reader iid *)
  write_lines : (int, unit) Hashtbl.t;  (* order-sensitive at commit *)
  sent : (Ir.Instr.channel, sent_entry) Hashtbl.t;
  consumed : (Ir.Instr.channel, payload) Hashtbl.t;
  sig_buffer : (Ir.Instr.channel, int) Hashtbl.t;
  spec_lines : Scratch.t;               (* union of read/write keys *)
  occ : Scratch.t;                      (* oracle occurrence counters *)
  mutable pending_preds : (Ir.Instr.iid * int * int * bool) list;
  mutable stall_until : int;
  mutable blocked : bool;
  mutable wake_at : int;                (* max_int = poll every cycle *)
  mutable last_block : int;             (* blocking channel; -1 = none *)
  mutable a_busy : int;
  mutable a_sync : int;
  mutable a_other : int;
  a_sync_chan : Scratch.t;              (* summed commutatively at commit *)
  mutable attempt_instrs : int;
  mutable restarts : int;
  mutable hold_until_oldest : bool;
  mutable overflow_hold : bool;
  mutable overflow_squash_pending : bool;
  mutable bp_channel : int;             (* backpressure channel; -1 = none *)
  (* Parked poller: 1 = Forward_normal memory wait, 2 = scalar wait,
     3 = Forward_at_commit wait (non-oldest).  0 = not parked. *)
  mutable park_kind : int;
  mutable park_dirty : bool;
}

type tls_state = {
  ts_region : Ir.Region.t;
  ts_instance : int;
  ts_base : Runtime.Thread.frame;
  ts_blocks : Int_set.t;
  ts_channels : Int_set.t;
  ts_comp_loads : Int_set.t;
  ts_entry_sent : (Ir.Instr.channel, sent_entry) Hashtbl.t;
  ring : epoch option array;            (* slot = ep_index land (cap-1) *)
  cap : int;   (* smallest power of two > num_procs, so slot lookup is a
                  mask rather than a division *)
  mutable ts_oldest : int;
  mutable ts_next_spawn : int;
  mutable ts_commit_ready : int;
  mutable ts_ended : bool;
  mutable ts_winner : epoch option;
  ts_start_cycle : int;
}

type mode = Seq | Tls of tls_state

(* Per-channel sync-filter statistics, updated in place: the reference
   engine's immutable (matched, seen) pairs would allocate once per
   executed sync load here. *)
type chan_stat = { mutable cs_matched : int; mutable cs_seen : int }

type sim = {
  cfg : Config.t;
  code : Runtime.Code.t;
  memsys : Memsys.t;
  hwsync : Hwsync.t;
  vpred : Vpred.t;
  oracle : Oracle.t option;
  committed : Runtime.Memory.t;
  seq_thread : Runtime.Thread.t;
  regions_by_func : (string, Ir.Region.t list) Hashtbl.t;
  (* Header-indexed region lookup per function, memoized on the current
     frame's cfunc so the sequential goto path does not hash strings. *)
  region_arrays : (string, Ir.Region.t option array) Hashtbl.t;
  mutable cur_cfunc : Runtime.Code.cfunc option;
  mutable cur_regions : Ir.Region.t option array;
  instance_counters : (int, int) Hashtbl.t;
  mutable mode : mode;
  mutable cycle : int;
  mutable seq_cycles : int;
  mutable region_wall : int;
  mutable seq_stall_until : int;
  mutable pending_region : Ir.Region.t option;
  mutable extra_latency : int;
  mutable finished : bool;
  mutable output_rev : int list;
  slots : Simstats.slots;
  attribution : Simstats.attribution;
  mutable violations : int;
  mutable committed_epochs : int;
  mutable squashed_epochs : int;
  mutable max_sig_buffer : int;
  ever_marked : (Ir.Instr.iid, unit) Hashtbl.t;
  region_wall_by_id : (int, int) Hashtbl.t;
  chan_stats : (Ir.Instr.channel, chan_stat) Hashtbl.t;
  sync_by_channel : (Ir.Instr.channel, int) Hashtbl.t;
  violated_loads : (Ir.Instr.iid, int) Hashtbl.t;
  mutable last_progress : int;
  mutable f_mem_signals : int;
  mutable f_blocked_waits : int;
  fired : (Config.sim_fault, unit) Hashtbl.t;
  dropped_wakeups : (int * Ir.Instr.channel, unit) Hashtbl.t;
  resources : Simstats.resources;
  (* Event-engine machinery. *)
  parking_enabled : bool;
  (* Flat icode dispatch (DESIGN §17).  The side tables are hoisted out
     of the [Icode.prog] record so the hot fetch is one load each. *)
  ic_funcs : Icode.func array;          (* indexed by [cf_id] *)
  ic_names : string array;
  ic_ret_opts : Ir.Instr.reg option array;
  mutable rcv_v : int;                  (* receive: Ready payload value *)
  mutable rcv_avail : int;              (* receive: Not_yet wake cycle *)
  mutable sig_a : int;                  (* signal payload scratch: addr *)
  mutable sig_v : int;                  (* signal payload scratch: value *)
  mutable step_rv : int option;         (* dispatcher: Finished value *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let track_key sim addr =
  if sim.cfg.Config.word_level_tracking then addr
  else Memsys.line_of sim.memsys addr

let drain_thread_output sim (t : Runtime.Thread.t) =
  sim.output_rev <- t.Runtime.Thread.output @ sim.output_rev;
  t.Runtime.Thread.output <- []

let epoch_proc sim e = e.ep_index mod sim.cfg.Config.num_procs

(* Flat offset of block [target] in [cfunc]'s icode — the frame fix-up
   applied wherever the legacy convention "[pc <- 0] at block entry"
   appears (region entry, TLS-exit handoff). *)
let block_entry sim (cfunc : Runtime.Code.cfunc) target =
  let fn = Array.unsafe_get sim.ic_funcs cfunc.Runtime.Code.cf_id in
  fn.Icode.block_off.(target)

let[@inline] is_oldest st e = e.ep_index = st.ts_oldest

(* Live epoch at absolute index [k], if the ring slot still holds it.
   Inlined: the per-cycle scans call this once per window slot. *)
let[@inline] epoch_at st k =
  if k < 0 then None
  else
    match st.ring.(k land (st.cap - 1)) with
    | Some e as s when e.ep_index = k -> s
    | _ -> None

let active_epochs st =
  let rec collect k acc =
    if k >= st.ts_next_spawn then List.rev acc
    else
      match epoch_at st k with
      | Some e when status_live e.status ->
        collect (k + 1) (e :: acc)
      | _ -> collect (k + 1) acc
  in
  collect st.ts_oldest []

let epoch_diag_of e =
  let channels tbl =
    Hashtbl.fold (fun ch _ acc -> ch :: acc) tbl [] |> List.sort compare
  in
  {
    ed_index = e.ep_index;
    ed_status =
      (match e.status with
      | Running -> "running"
      | Done -> "done"
      | Committed -> "committed"
      | Discarded -> "discarded");
    ed_blocked = e.blocked;
    ed_wake_at = e.wake_at;
    ed_last_block = (if e.last_block >= 0 then Some e.last_block else None);
    ed_sent = channels e.sent;
    ed_consumed = channels e.consumed;
  }

let stuck_diag_of sim st reason =
  {
    sd_reason = reason;
    sd_cycle = sim.cycle;
    sd_region = st.ts_region.Ir.Region.id;
    sd_func = st.ts_region.Ir.Region.func;
    sd_oldest = st.ts_oldest;
    sd_epochs = List.map epoch_diag_of (active_epochs st);
  }

let mark_fired sim fault = Hashtbl.replace sim.fired fault ()

(* Park invalidation: the producer-side state feeding epoch [k]'s wait
   changed, so its next poll must run the full path. *)
let dirty_at st k =
  match epoch_at st k with Some e -> e.park_dirty <- true | None -> ()

let dirty_succ st e = dirty_at st (e.ep_index + 1)

let dirty_all st =
  for k = st.ts_oldest to st.ts_next_spawn - 1 do
    dirty_at st k
  done

let note_blocked_wait sim e ch =
  let n = sim.f_blocked_waits in
  sim.f_blocked_waits <- n + 1;
  (* Fault scan only when faults are configured: the common path stays
     allocation-free (a local [let rec] closure would be built per call
     even over an empty fault list). *)
  match sim.cfg.Config.sim_faults with
  | [] -> ()
  | faults ->
    let rec scan = function
      | [] -> ()
      | fault :: rest ->
        (match fault with
        | Config.Drop_wakeup k when k = n ->
          mark_fired sim fault;
          Hashtbl.replace sim.dropped_wakeups (e.ep_index, ch) ();
          e.wake_at <- max_int
        | _ -> ());
        scan rest
    in
    scan faults

(* Allocate or recycle the ring slot for epoch [index].  Recycling keeps
   the Scratch arrays and Hashtbls; [Hashtbl.reset] restores the initial
   capacity, so iteration order stays identical to fresh tables given
   the same subsequent operation sequence. *)
let fresh_epoch sim st index =
  let frame = Runtime.Thread.copy_frame st.ts_base in
  let thread =
    Runtime.Thread.create_from_frame sim.code frame
      ~input:sim.seq_thread.Runtime.Thread.input
  in
  let stall = sim.cycle + sim.cfg.Config.spawn_overhead in
  let e =
    match st.ring.(index land (st.cap - 1)) with
    | Some e ->
      e.ep_index <- index;
      e.ep_thread <- thread;
      e.status <- Running;
      e.exitk <- None;
      Scratch.clear e.spec_writes;
      Scratch.clear e.read_lines;
      Hashtbl.reset e.write_lines;
      Hashtbl.reset e.sent;
      Hashtbl.reset e.consumed;
      Hashtbl.reset e.sig_buffer;
      Scratch.clear e.spec_lines;
      Scratch.clear e.occ;
      e.pending_preds <- [];
      e.stall_until <- stall;
      e.blocked <- false;
      e.wake_at <- max_int;
      e.last_block <- -1;
      e.a_busy <- 0;
      e.a_sync <- 0;
      e.a_other <- 0;
      Scratch.clear e.a_sync_chan;
      e.attempt_instrs <- 0;
      e.restarts <- 0;
      e.hold_until_oldest <- false;
      e.overflow_hold <- false;
      e.overflow_squash_pending <- false;
      e.bp_channel <- -1;
      e.park_kind <- 0;
      e.park_dirty <- false;
      e
    | None ->
      {
        ep_index = index;
        ep_thread = thread;
        status = Running;
        exitk = None;
        spec_writes = Scratch.create ~capacity:64 ();
        read_lines = Scratch.create ~capacity:64 ();
        write_lines = Hashtbl.create 16;
        sent = Hashtbl.create 8;
        consumed = Hashtbl.create 8;
        sig_buffer = Hashtbl.create 4;
        spec_lines = Scratch.create ~capacity:64 ();
        occ = Scratch.create ~capacity:16 ();
        pending_preds = [];
        stall_until = stall;
        blocked = false;
        wake_at = max_int;
        last_block = -1;
        a_busy = 0;
        a_sync = 0;
        a_other = 0;
        a_sync_chan = Scratch.create ();
        attempt_instrs = 0;
        restarts = 0;
        hold_until_oldest = false;
        overflow_hold = false;
        overflow_squash_pending = false;
        bp_channel = -1;
        park_kind = 0;
        park_dirty = false;
      }
  in
  e

let add_sync_chan e ch n =
  if ch >= 0 && n > 0 then begin
    let i = Scratch.probe e.a_sync_chan ch in
    let prev = if i >= 0 then Scratch.value_at e.a_sync_chan i else 0 in
    Scratch.set e.a_sync_chan ch (n + prev)
  end

let reset_attempt sim st e =
  sim.slots.Simstats.s_fail <-
    sim.slots.Simstats.s_fail + e.a_busy + e.a_sync + e.a_other;
  e.a_busy <- 0;
  e.a_sync <- 0;
  e.a_other <- 0;
  Scratch.clear e.a_sync_chan;
  e.attempt_instrs <- 0;
  Scratch.clear e.spec_writes;
  Scratch.clear e.read_lines;
  Hashtbl.reset e.write_lines;
  Hashtbl.reset e.sent;
  Hashtbl.reset e.consumed;
  Hashtbl.reset e.sig_buffer;
  Scratch.clear e.spec_lines;
  Scratch.clear e.occ;
  e.pending_preds <- [];
  e.overflow_hold <- false;
  e.overflow_squash_pending <- false;
  e.bp_channel <- -1;
  let frame = Runtime.Thread.copy_frame st.ts_base in
  e.ep_thread <-
    Runtime.Thread.create_from_frame sim.code frame
      ~input:sim.seq_thread.Runtime.Thread.input;
  (* The successor's wait may have been watching this epoch's (now
     cleared) sent table. *)
  dirty_succ st e

let squash sim st e =
  if status_live e.status then begin
    sim.squashed_epochs <- sim.squashed_epochs + 1;
    reset_attempt sim st e;
    e.status <- Running;
    e.exitk <- None;
    e.blocked <- false;
    e.wake_at <- max_int;
    e.stall_until <- sim.cycle + sim.cfg.Config.violation_penalty;
    e.park_kind <- 0;
    e.park_dirty <- false;
    e.restarts <- e.restarts + 1;
    if e.restarts > sim.cfg.Config.max_restarts_before_hold then
      e.hold_until_oldest <- true
  end

let cascade_squash sim st victim_idx =
  for k = victim_idx to st.ts_next_spawn - 1 do
    match epoch_at st k with
    | Some e ->
      squash sim st e;
      e.stall_until <-
        e.stall_until + (sim.cfg.Config.spawn_overhead * (k - victim_idx))
    | None -> ()
  done

let violate sim st ~victim_idx ~load_iid =
  sim.violations <- sim.violations + 1;
  let comp = Int_set.mem load_iid st.ts_comp_loads in
  let hw = Hwsync.marked sim.hwsync load_iid in
  let a = sim.attribution in
  (match comp, hw with
  | true, true -> a.Simstats.v_both <- a.Simstats.v_both + 1
  | true, false -> a.Simstats.v_comp_only <- a.Simstats.v_comp_only + 1
  | false, true -> a.Simstats.v_hw_only <- a.Simstats.v_hw_only + 1
  | false, false -> a.Simstats.v_neither <- a.Simstats.v_neither + 1);
  Hwsync.record_violation sim.hwsync load_iid;
  Hashtbl.replace sim.ever_marked load_iid ();
  Hashtbl.replace sim.violated_loads load_iid
    (1 + Option.value ~default:0 (Hashtbl.find_opt sim.violated_loads load_iid));
  cascade_squash sim st victim_idx

(* ------------------------------------------------------------------ *)
(* Channel plumbing                                                    *)
(* ------------------------------------------------------------------ *)

(* Raises [Not_found] when the predecessor has not signaled; the caller
   catches it.  The exception keeps the hot poll allocation-free (a
   [find_opt] would box a [Some] per poll). *)
let sent_of_predecessor st e ch =
  if e.ep_index = 0 then Hashtbl.find st.ts_entry_sent ch
  else
    match epoch_at st (e.ep_index - 1) with
    | Some pred -> Hashtbl.find pred.sent ch
    | None -> raise Not_found

let predecessor_finished st e =
  if e.ep_index = 0 then true
  else
    match epoch_at st (e.ep_index - 1) with
    | Some pred -> (match pred.status with Committed -> true | _ -> false)
    | None -> false

(* Receive on a channel, int-coded: 0 = Ready (value in [sim.rcv_v]),
   1 = Not_yet (wake cycle in [sim.rcv_avail]), 2 = Nothing. *)
let receive sim st e ch =
  match Hashtbl.find e.consumed ch with
  | p ->
    (match p with P_scalar v | P_mem (_, v) -> sim.rcv_v <- v);
    0
  | exception Not_found -> begin
    match sent_of_predecessor st e ch with
    | { se_payload; se_avail } ->
      if se_avail <= sim.cycle then begin
        Hashtbl.replace e.consumed ch se_payload;
        (match se_payload with P_scalar v | P_mem (_, v) -> sim.rcv_v <- v);
        0
      end
      else begin
        sim.rcv_avail <- se_avail;
        1
      end
    | exception Not_found ->
      if predecessor_finished st e then
        raise
          (Deadlock
             (Printf.sprintf
                "epoch %d waits on channel %d its committed predecessor never signaled"
                e.ep_index ch))
      else 2
  end

(* ------------------------------------------------------------------ *)
(* Epoch memory semantics                                              *)
(* ------------------------------------------------------------------ *)

let oracle_covers sim iid =
  match sim.cfg.Config.oracle with
  | Config.Oracle_none -> false
  | Config.Oracle_all -> true
  | Config.Oracle_set s -> Config.Iid_set.mem iid s

let oracle_value sim st e iid =
  match sim.oracle with
  | None -> None
  | Some oracle ->
    let occurrence =
      let s = Scratch.probe e.occ iid in
      if s >= 0 then Scratch.value_at e.occ s else 0
    in
    Scratch.set e.occ iid (occurrence + 1);
    Oracle.value oracle ~region:st.ts_region.Ir.Region.id
      ~instance:st.ts_instance ~iteration:(e.ep_index + 1) ~iid ~occurrence

let note_spec_line sim st e key =
  if not (Scratch.mem e.spec_lines key) then begin
    Scratch.set e.spec_lines key 0;
    let occ = Scratch.cardinal e.spec_lines in
    let rs = sim.resources in
    if occ > rs.Simstats.rs_peak_spec_lines then
      rs.Simstats.rs_peak_spec_lines <- occ;
    if occ > sim.cfg.Config.spec_lines_per_epoch && not (is_oldest st e)
    then begin
      rs.Simstats.rs_spec_overflows <- rs.Simstats.rs_spec_overflows + 1;
      match sim.cfg.Config.overflow_policy with
      | Config.Overflow_stall ->
        if not e.overflow_hold then begin
          e.overflow_hold <- true;
          rs.Simstats.rs_spec_stalls <- rs.Simstats.rs_spec_stalls + 1
        end
      | Config.Overflow_squash ->
        if not e.overflow_squash_pending then begin
          e.overflow_squash_pending <- true;
          rs.Simstats.rs_spec_squashes <- rs.Simstats.rs_spec_squashes + 1
        end
    end
  end

(* Plain speculative load.  [Memsys.access_line] publishes the line id,
   so the tracking key reuses it instead of recomputing [line_of]. *)
let speculative_load sim st e iid addr =
  let proc = epoch_proc sim e in
  sim.extra_latency <- Memsys.access_line sim.memsys ~proc ~addr - 1;
  let s = Scratch.probe e.spec_writes addr in
  if s >= 0 then Scratch.value_at e.spec_writes s
  else begin
    let key =
      if sim.cfg.Config.word_level_tracking then addr
      else Memsys.last_line sim.memsys
    in
    if not (Scratch.mem e.read_lines key) then
      Scratch.set e.read_lines key iid;
    note_spec_line sim st e key;
    Runtime.Memory.get sim.committed addr
  end

let epoch_load sim st e iid addr =
  if oracle_covers sim iid then begin
    match oracle_value sim st e iid with
    | Some v ->
      let proc = epoch_proc sim e in
      sim.extra_latency <- Memsys.access sim.memsys ~proc ~addr - 1;
      v
    | None -> speculative_load sim st e iid addr
  end
  else if
    sim.cfg.Config.hw_value_predict
    && Hwsync.marked sim.hwsync iid
    && (not (is_oldest st e))
    && Scratch.probe e.spec_writes addr < 0
  then begin
    match
      Vpred.predict sim.vpred iid
        ~confidence:sim.cfg.Config.vpred_confidence
    with
    | Some v ->
      e.pending_preds <- (iid, addr, v, true) :: e.pending_preds;
      sim.extra_latency <- 0;
      v
    | None ->
      let v = speculative_load sim st e iid addr in
      e.pending_preds <- (iid, addr, v, false) :: e.pending_preds;
      v
  end
  else speculative_load sim st e iid addr

(* Violation scan shared by stores and commits: the first epoch at or
   after [k] that speculatively read [line] is the violate victim.
   Top-level (not a local [let rec]) so the per-store path does not
   allocate the scan closure. *)
let rec scan_line_readers sim st line k =
  if k < st.ts_next_spawn then begin
    match epoch_at st k with
    | Some e' when status_live e'.status ->
      let s = Scratch.probe e'.read_lines line in
      if s >= 0 then
        violate sim st ~victim_idx:k
          ~load_iid:(Scratch.value_at e'.read_lines s)
      else scan_line_readers sim st line (k + 1)
    | _ -> scan_line_readers sim st line (k + 1)
  end

let epoch_store sim st e addr v =
  let proc = epoch_proc sim e in
  sim.extra_latency <- Memsys.access_line sim.memsys ~proc ~addr - 1;
  Scratch.set e.spec_writes addr v;
  let line =
    if sim.cfg.Config.word_level_tracking then addr
    else Memsys.last_line sim.memsys
  in
  Hashtbl.replace e.write_lines line ();
  note_spec_line sim st e line;
  (* Store-time violation: younger epochs that speculatively read the line. *)
  scan_line_readers sim st line (e.ep_index + 1);
  (* Producer-side signal address buffer: storing to an address already
     forwarded means the wrong value was sent.  Guarded: iterating even
     an empty table walks its bucket array, and most stores see no
     outstanding signals. *)
  if Hashtbl.length e.sig_buffer > 0 then
  Hashtbl.iter
    (fun ch signaled_addr ->
      if signaled_addr = addr then begin
        Hashtbl.replace e.sent ch
          {
            se_payload = P_mem (addr, v);
            se_avail = sim.cycle + sim.cfg.Config.forward_latency;
          };
        dirty_succ st e;
        match epoch_at st (e.ep_index + 1) with
        | Some succ
          when (status_live succ.status)
               && Hashtbl.mem succ.consumed ch ->
          violate sim st ~victim_idx:succ.ep_index
            ~load_iid:
              (match Int_set.choose_opt st.ts_comp_loads with
              | Some iid -> iid
              | None -> -1)
        | _ -> ()
      end)
    e.sig_buffer

let forwardable_value e ch addr =
  let s = Scratch.probe e.spec_writes addr in
  if s >= 0 then Some (Scratch.value_at e.spec_writes s)
  else begin
    match Hashtbl.find_opt e.consumed ch with
    | Some (P_mem (a, v)) when a = addr -> Some v
    | Some _ | None -> None
  end

let fwd_queue_occupancy st e =
  match epoch_at st (e.ep_index + 1) with
  | Some succ when status_live succ.status ->
    Hashtbl.fold
      (fun ch _ n -> if Hashtbl.mem succ.consumed ch then n else n + 1)
      e.sent 0
  | _ -> 0

let note_fwd_peak sim st e =
  let occ = fwd_queue_occupancy st e in
  let rs = sim.resources in
  if occ > rs.Simstats.rs_peak_fwd_queue then rs.Simstats.rs_peak_fwd_queue <- occ

(* Resolve the payload a mem signal on [ch] would forward for [addr],
   into [sim.sig_a]/[sim.sig_v] (sig_a = 0 encodes an unresolvable or
   null signal).  Mutable scratch instead of an (addr, value) pair:
   this runs once per executed mem signal, and the tuple-chain it
   replaces was a measurable slice of the engine's allocation. *)
let resolve_signal_payload sim e ch addr =
  if addr = 0 then begin
    sim.sig_a <- 0;
    sim.sig_v <- 0
  end
  else begin
    let s = Scratch.probe e.spec_writes addr in
    if s >= 0 then begin
      sim.sig_a <- addr;
      sim.sig_v <- Scratch.value_at e.spec_writes s
    end
    else
      match Hashtbl.find e.consumed ch with
      | P_mem (a, v) when a = addr ->
        sim.sig_a <- addr;
        sim.sig_v <- v
      | _ ->
        sim.sig_a <- 0;
        sim.sig_v <- 0
      | exception Not_found ->
        sim.sig_a <- 0;
        sim.sig_v <- 0
  end

let epoch_signal_mem sim st e ch addr =
  if sim.cfg.Config.stall_compiler_sync then begin
    resolve_signal_payload sim e ch addr;
    let n = sim.f_mem_signals in
    sim.f_mem_signals <- n + 1;
    let extra_delay =
      match sim.cfg.Config.sim_faults with
      | [] -> 0
      | faults ->
        let a, v, d =
          List.fold_left
            (fun (a, v, d) fault ->
              match fault with
              | Config.Corrupt_addr k when k = n ->
                mark_fired sim fault;
                ((-987654321) - k, v, d)
              | Config.Corrupt_value k when k = n ->
                mark_fired sim fault;
                (0, 0, d)
              | Config.Delay_signal { nth; extra } when nth = n ->
                mark_fired sim fault;
                (a, v, d + extra)
              | _ -> (a, v, d))
            (sim.sig_a, sim.sig_v, 0) faults
        in
        sim.sig_a <- a;
        sim.sig_v <- v;
        d
    in
    if
      sim.sig_a <> 0
      && (not (Hashtbl.mem e.sig_buffer ch))
      && Hashtbl.length e.sig_buffer >= sim.cfg.Config.sig_buffer_entries
    then begin
      sim.resources.Simstats.rs_sig_drops <-
        sim.resources.Simstats.rs_sig_drops + 1;
      sim.sig_a <- 0;
      sim.sig_v <- 0
    end;
    let had_previous = Hashtbl.mem e.sent ch in
    Hashtbl.replace e.sent ch
      {
        se_payload = P_mem (sim.sig_a, sim.sig_v);
        se_avail = sim.cycle + sim.cfg.Config.forward_latency + extra_delay;
      };
    dirty_succ st e;
    note_fwd_peak sim st e;
    if sim.sig_a <> 0 then begin
      Hashtbl.replace e.sig_buffer ch sim.sig_a;
      sim.max_sig_buffer <-
        max sim.max_sig_buffer (Hashtbl.length e.sig_buffer)
    end;
    if had_previous then begin
      match epoch_at st (e.ep_index + 1) with
      | Some succ
        when (status_live succ.status)
             && Hashtbl.mem succ.consumed ch ->
        violate sim st ~victim_idx:succ.ep_index
          ~load_iid:
            (match Int_set.choose_opt st.ts_comp_loads with
            | Some iid -> iid
            | None -> -1)
      | _ -> ()
    end
  end

let channel_filtered sim ch =
  sim.cfg.Config.filter_useless_sync
  &&
  match Hashtbl.find sim.chan_stats ch with
  | cs ->
    cs.cs_seen >= sim.cfg.Config.filter_window
    && cs.cs_matched * 4 < cs.cs_seen
  | exception Not_found -> false

let note_channel_outcome sim ch ~matched =
  match Hashtbl.find sim.chan_stats ch with
  | cs ->
    if matched then cs.cs_matched <- cs.cs_matched + 1;
    cs.cs_seen <- cs.cs_seen + 1
  | exception Not_found ->
    Hashtbl.replace sim.chan_stats ch
      { cs_matched = (if matched then 1 else 0); cs_seen = 1 }

(* ------------------------------------------------------------------ *)
(* Epoch instruction dispatcher                                        *)
(* ------------------------------------------------------------------ *)

(* Outcome codes of one dispatch (matching Thread.outcome without the
   allocation): 0 = ran, 1 = blocked, 2 = suspended, 3 = finished
   (return value in [sim.step_rv]). *)

(* Park a blocked wait.  The eager per-cycle charge in [step_epochs]
   reproduces exactly what a failed re-poll would account. *)
let park sim e kind =
  if sim.parking_enabled then begin
    e.park_kind <- kind;
    e.park_dirty <- false
  end

(* Bind call arguments to the callee's parameter registers pairwise,
   reading the inline (mode, value) slots of a flat call site; extra
   arguments are dropped, unbound parameters stay 0.  Top-level
   recursion: an executed call allocates no closure. *)
let rec bind_args code regs callee_regs params base n k =
  if k < n then
    match params with
    | preg :: ps ->
      let m = Array.unsafe_get code (base + (2 * k)) in
      let v = Array.unsafe_get code (base + (2 * k) + 1) in
      callee_regs.(preg) <- (if m <> 0 then v else Array.unsafe_get regs v);
      bind_args code regs callee_regs ps base n (k + 1)
    | [] -> ()

let[@inline] finish_ic (t : Runtime.Thread.t) (f : Runtime.Thread.frame) pc width
    =
  f.Runtime.Thread.pc <- pc + width;
  t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
  0

(* One instruction (or terminator) of epoch [e], with the reference
   engine's hook semantics inlined, dispatched over the flat icode
   encoding (DESIGN §17): a frame's [pc] is a flat offset into the
   function-wide [Icode.code] array (blocks in label order, block 0 at
   offset 0, so the spawn-time [pc = 0] convention is unchanged) and
   [block] is maintained but never used for dispatch.  Every
   memory-system, scratch-table, and hashtable operation happens in
   exactly the order of {!Sim_ref} — the differential suite pins byte
   equality between the two.  The unchecked array reads are licensed by
   {!Icode.verify}, which ran at construction. *)
let epoch_step sim st e =
  let t = e.ep_thread in
  match t.Runtime.Thread.frames with
  | [] -> failwith "Thread: step on finished thread"
  | f :: frames_rest ->
    let fn =
      Array.unsafe_get sim.ic_funcs
        f.Runtime.Thread.cfunc.Runtime.Code.cf_id
    in
    let code = fn.Icode.code in
    let regs = f.Runtime.Thread.regs in
    let pc = f.Runtime.Thread.pc in
    let w = Array.unsafe_get code pc in
    let op = w land 0xff in
    if op < 16 then begin
      (* Bin *)
      let a = Array.unsafe_get code (pc + 3) in
      let av = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
      let b = Array.unsafe_get code (pc + 4) in
      let bv = if w land 0x200 <> 0 then b else Array.unsafe_get regs b in
      Array.unsafe_set regs
        (Array.unsafe_get code (pc + 2))
        (Icode.eval_binop_i op av bv);
      if op = 2 then sim.extra_latency <- sim.cfg.Config.lat_mul - 1
      else if op = 3 || op = 4 then
        sim.extra_latency <- sim.cfg.Config.lat_div - 1;
      finish_ic t f pc 5
    end
    else
      match op with
      | 16 (* Mov *) ->
        let a = Array.unsafe_get code (pc + 3) in
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (if w land 0x100 <> 0 then a else Array.unsafe_get regs a);
        finish_ic t f pc 4
      | 17 (* Load *) ->
        let a = Array.unsafe_get code (pc + 3) in
        let addr = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (epoch_load sim st e (Array.unsafe_get code (pc + 1)) addr);
        finish_ic t f pc 4
      | 18 (* Store *) ->
        let a = Array.unsafe_get code (pc + 2) in
        let addr = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        let v = Array.unsafe_get code (pc + 3) in
        let value = if w land 0x200 <> 0 then v else Array.unsafe_get regs v in
        epoch_store sim st e addr value;
        finish_ic t f pc 4
      | 19 (* Call *) ->
        let fidx = Array.unsafe_get code (pc + 2) in
        if fidx < 0 then
          failwith
            ("Thread: call to unknown function " ^ sim.ic_names.(-fidx - 1))
        else begin
          let callee = (Array.unsafe_get sim.ic_funcs fidx).Icode.fn_cfunc in
          let callee_regs = Array.make callee.Runtime.Code.cf_nregs 0 in
          let nargs = Array.unsafe_get code (pc + 4) in
          bind_args code regs callee_regs callee.Runtime.Code.cf_params
            (pc + 5) nargs 0;
          f.Runtime.Thread.pc <- pc + 5 + (2 * nargs);
          t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
          let callee_frame =
            {
              Runtime.Thread.cfunc = callee;
              regs = callee_regs;
              block = 0;
              pc = 0;
              ret_to = Array.unsafe_get sim.ic_ret_opts code.(pc + 3);
              call_iid = Array.unsafe_get code (pc + 1);
            }
          in
          t.Runtime.Thread.frames <- callee_frame :: t.Runtime.Thread.frames;
          0
        end
      | 20 (* Print *) ->
        let a = Array.unsafe_get code (pc + 2) in
        t.Runtime.Thread.output <-
          (if w land 0x100 <> 0 then a else Array.unsafe_get regs a)
          :: t.Runtime.Thread.output;
        finish_ic t f pc 3
      | 21 (* Input *) ->
        let a = Array.unsafe_get code (pc + 3) in
        let idx = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        let input = t.Runtime.Thread.input in
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (if idx >= 0 && idx < Array.length input then input.(idx) else 0);
        finish_ic t f pc 4
      | 22 (* Input_len *) ->
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (Array.length t.Runtime.Thread.input);
        finish_ic t f pc 3
      | 23 (* Wait_scalar *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if not (Int_set.mem ch st.ts_channels) then
          (* A nested region's synchronization, executed sequentially:
             the "forwarded" value is the current one (identity). *)
          finish_ic t f pc 4
        else begin
          match receive sim st e ch with
          | 0 ->
            Array.unsafe_set regs (Array.unsafe_get code (pc + 3)) sim.rcv_v;
            finish_ic t f pc 4
          | 1 ->
            e.blocked <- true;
            e.wake_at <- sim.rcv_avail;
            e.last_block <- ch;
            park sim e 2;
            1
          | _ ->
            e.blocked <- true;
            e.wake_at <- max_int;
            e.last_block <- ch;
            park sim e 2;
            1
        end
      | 24 (* Signal_scalar *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if Int_set.mem ch st.ts_channels then begin
          let a = Array.unsafe_get code (pc + 3) in
          Hashtbl.replace e.sent ch
            {
              se_payload =
                P_scalar
                  (if w land 0x100 <> 0 then a else Array.unsafe_get regs a);
              se_avail = sim.cycle + sim.cfg.Config.forward_latency;
            };
          dirty_succ st e;
          note_fwd_peak sim st e
        end;
        finish_ic t f pc 4
      | 25 (* Wait_mem *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if not (Int_set.mem ch st.ts_channels) then finish_ic t f pc 3
        else if not sim.cfg.Config.stall_compiler_sync then finish_ic t f pc 3
        else if
          Hashtbl.length sim.dropped_wakeups > 0
          && Hashtbl.mem sim.dropped_wakeups (e.ep_index, ch)
        then begin
          e.blocked <- true;
          e.wake_at <- max_int;
          e.last_block <- ch;
          1
        end
        else if channel_filtered sim ch then finish_ic t f pc 3
        else begin
          match sim.cfg.Config.forward_timing with
          | Config.Forward_perfect -> finish_ic t f pc 3
          | Config.Forward_at_commit ->
            if is_oldest st e then finish_ic t f pc 3
            else begin
              e.blocked <- true;
              e.wake_at <- max_int;
              e.last_block <- ch;
              park sim e 3;
              1
            end
          | Config.Forward_normal -> begin
            match receive sim st e ch with
            | 0 -> finish_ic t f pc 3
            | 1 ->
              e.blocked <- true;
              e.wake_at <- sim.rcv_avail;
              e.last_block <- ch;
              note_blocked_wait sim e ch;
              park sim e 1;
              1
            | _ ->
              e.blocked <- true;
              e.wake_at <- max_int;
              e.last_block <- ch;
              note_blocked_wait sim e ch;
              park sim e 1;
              1
          end
        end
      | 26 (* Sync_load *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        let iid = Array.unsafe_get code (pc + 1) in
        let a = Array.unsafe_get code (pc + 4) in
        let addr = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        let value =
          if not (Int_set.mem ch st.ts_channels) then
            speculative_load sim st e iid addr
          else if not sim.cfg.Config.stall_compiler_sync then
            speculative_load sim st e iid addr
          else begin
            match sim.cfg.Config.forward_timing with
            | Config.Forward_perfect -> begin
              match oracle_value sim st e iid with
              | Some v ->
                sim.extra_latency <- 0;
                v
              | None -> speculative_load sim st e iid addr
            end
            | Config.Forward_at_commit -> speculative_load sim st e iid addr
            | Config.Forward_normal -> begin
              if channel_filtered sim ch then speculative_load sim st e iid addr
              else
                match Hashtbl.find e.consumed ch with
                | P_mem (fa, v) when fa <> 0 && fa = addr ->
                  note_channel_outcome sim ch ~matched:true;
                  let s = Scratch.probe e.spec_writes addr in
                  if s >= 0 then begin
                    sim.extra_latency <- 0;
                    Scratch.value_at e.spec_writes s
                  end
                  else begin
                    sim.extra_latency <- 0;
                    v
                  end
                | _ ->
                  note_channel_outcome sim ch ~matched:false;
                  speculative_load sim st e iid addr
                | exception Not_found ->
                  if not sim.cfg.Config.filter_useless_sync then
                    raise
                      (Stuck
                         (stuck_diag_of sim st
                            (Missing_wait { channel = ch; iid })))
                  else begin
                    note_channel_outcome sim ch ~matched:false;
                    speculative_load sim st e iid addr
                  end
            end
          end
        in
        Array.unsafe_set regs (Array.unsafe_get code (pc + 3)) value;
        finish_ic t f pc 5
      | 27 (* Signal_mem *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if Int_set.mem ch st.ts_channels then begin
          let a = Array.unsafe_get code (pc + 3) in
          epoch_signal_mem sim st e ch
            (if w land 0x100 <> 0 then a else Array.unsafe_get regs a)
        end;
        finish_ic t f pc 4
      | 28 (* Signal_mem_if_unsent *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if
          Int_set.mem ch st.ts_channels
          && sim.cfg.Config.stall_compiler_sync
          && not (Hashtbl.mem e.sent ch)
        then begin
          let a = Array.unsafe_get code (pc + 3) in
          epoch_signal_mem sim st e ch
            (if w land 0x100 <> 0 then a else Array.unsafe_get regs a)
        end;
        finish_ic t f pc 4
      | 29 (* Signal_null *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if Int_set.mem ch st.ts_channels && sim.cfg.Config.stall_compiler_sync
        then begin
          Hashtbl.replace e.sent ch
            {
              se_payload = P_mem (0, 0);
              se_avail = sim.cycle + sim.cfg.Config.forward_latency;
            };
          dirty_succ st e;
          note_fwd_peak sim st e
        end;
        finish_ic t f pc 3
      | 30 (* Signal_null_if_unsent *) ->
        let ch = Array.unsafe_get code (pc + 2) in
        if
          Int_set.mem ch st.ts_channels
          && sim.cfg.Config.stall_compiler_sync
          && not (Hashtbl.mem e.sent ch)
        then begin
          Hashtbl.replace e.sent ch
            {
              se_payload = P_mem (0, 0);
              se_avail = sim.cycle + sim.cfg.Config.forward_latency;
            };
          dirty_succ st e;
          note_fwd_peak sim st e
        end;
        finish_ic t f pc 3
      | _ ->
        (* Terminator. *)
        let goto target off =
          let proceed =
            (match frames_rest with _ :: _ -> true | [] -> false)
            ||
            if target = st.ts_region.Ir.Region.header then begin
              e.exitk <- Some Exit_back;
              false
            end
            else if not (Int_set.mem target st.ts_blocks) then begin
              e.exitk <- Some (Exit_out target);
              false
            end
            else true
          in
          if proceed then begin
            f.Runtime.Thread.block <- target;
            f.Runtime.Thread.pc <- off;
            t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
            0
          end
          else 2
        in
        if op = 31 (* Jmp *) then
          goto (Array.unsafe_get code (pc + 1)) (Array.unsafe_get code (pc + 2))
        else if op = 32 (* Br *) then begin
          let c = Array.unsafe_get code (pc + 1) in
          let cv = if w land 0x100 <> 0 then c else Array.unsafe_get regs c in
          if cv <> 0 then
            goto
              (Array.unsafe_get code (pc + 2))
              (Array.unsafe_get code (pc + 4))
          else
            goto
              (Array.unsafe_get code (pc + 3))
              (Array.unsafe_get code (pc + 5))
        end
        else begin
          (* Ret: bit 8 = has value, bit 9 = value is an immediate. *)
          t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
          match t.Runtime.Thread.frames with
          | [ _ ] ->
            t.Runtime.Thread.frames <- [];
            sim.step_rv <-
              (if w land 0x100 = 0 then None
               else
                 Some
                   (let v = Array.unsafe_get code (pc + 1) in
                    if w land 0x200 <> 0 then v else Array.unsafe_get regs v));
            3
          | _ :: (caller :: _ as rest) ->
            (match f.Runtime.Thread.ret_to with
            | Some dst ->
              caller.Runtime.Thread.regs.(dst) <-
                (if w land 0x100 = 0 then 0
                 else
                   let v = Array.unsafe_get code (pc + 1) in
                   if w land 0x200 <> 0 then v else Array.unsafe_get regs v)
            | None -> ());
            t.Runtime.Thread.frames <- rest;
            0
          | [] -> failwith "Thread: step on finished thread"
        end

(* ------------------------------------------------------------------ *)
(* Graduation                                                          *)
(* ------------------------------------------------------------------ *)

(* One decode of [e]'s next instruction, classifying what graduation
   must check before issuing it: -2 = hardware sync stall, ch >= 0 = a
   fresh signal that needs a forwarding-queue slot on [ch], -1 =
   neither.  The two cases are disjoint by instruction kind (loads
   vs. signals), so one opcode fetch classifies the upcoming
   instruction; terminators (op >= 31) never stall. *)
let peek_next sim st e =
  let hw =
    sim.cfg.Config.hw_sync_stall
    && (not (is_oldest st e))
    && not (Hwsync.is_empty sim.hwsync)
  in
  let fq = sim.cfg.Config.fwd_queue_depth <> max_int in
  if (not hw) && not fq then -1
  else
    match e.ep_thread.Runtime.Thread.frames with
    | [] -> -1
    | f :: _ ->
      let fn =
        Array.unsafe_get sim.ic_funcs
          f.Runtime.Thread.cfunc.Runtime.Code.cf_id
      in
      let code = fn.Icode.code in
      let pc = f.Runtime.Thread.pc in
      let op = Array.unsafe_get code pc land 0xff in
      let mem_sync = sim.cfg.Config.stall_compiler_sync in
      let candidate =
        if op = 17 || op = 26 (* Load / Sync_load *) then
          if
            hw
            && Hwsync.marked sim.hwsync (Array.unsafe_get code (pc + 1))
            && not
                 (sim.cfg.Config.hw_skip_compiler_synced
                 && Int_set.mem
                      (Array.unsafe_get code (pc + 1))
                      st.ts_comp_loads)
          then -2
          else -1
        else if op = 24 (* Signal_scalar *) then
          if fq then Array.unsafe_get code (pc + 2) else -1
        else if
          (* Signal_mem / _if_unsent / Signal_null / _if_unsent *)
          op >= 27 && op <= 30
        then if fq && mem_sync then Array.unsafe_get code (pc + 2) else -1
        else -1
      in
      if candidate >= 0 then
        if
          Int_set.mem candidate st.ts_channels
          && not (Hashtbl.mem e.sent candidate)
        then candidate
        else -1
      else candidate

(* Issue-slot loop as top-level recursion over the remaining slot
   count: this runs per epoch per cycle, so it must not allocate (a
   ref-cell loop or a local [let rec] closure would cost words per
   call). *)
let rec graduate_slots sim st e slots =
  if slots > 0 then begin
      if not (status_running e.status) then ()
      else if e.stall_until > sim.cycle then
        e.a_other <- e.a_other + slots
      else if e.hold_until_oldest && not (is_oldest st e) then begin
        e.blocked <- true;
        e.wake_at <- max_int;
        e.last_block <- -1;
        e.a_other <- e.a_other + slots
      end
      else if e.overflow_hold && not (is_oldest st e) then begin
        e.blocked <- true;
        e.wake_at <- max_int;
        e.last_block <- -1;
        e.a_other <- e.a_other + slots
      end
      else begin
        let nsc = peek_next sim st e in
        if nsc = -2 then begin
          (* Hardware sync stall on the upcoming marked load. *)
          e.blocked <- true;
          e.wake_at <- max_int;
          e.last_block <- -1;
          e.a_sync <- e.a_sync + slots
        end
        else if
          nsc >= 0
          && fwd_queue_occupancy st e >= sim.cfg.Config.fwd_queue_depth
        then begin
          let rs = sim.resources in
          if e.bp_channel < 0 then
            rs.Simstats.rs_bp_signals <- rs.Simstats.rs_bp_signals + 1;
          rs.Simstats.rs_bp_slots <- rs.Simstats.rs_bp_slots + slots;
          e.bp_channel <- nsc;
          e.blocked <- true;
          e.wake_at <- max_int;
          e.last_block <- nsc;
          e.a_sync <- e.a_sync + slots;
          add_sync_chan e nsc slots
        end
        else begin
          e.bp_channel <- -1;
          sim.extra_latency <- 0;
          match epoch_step sim st e with
          | 0 ->
            sim.last_progress <- sim.cycle;
            e.a_busy <- e.a_busy + 1;
            e.attempt_instrs <- e.attempt_instrs + 1;
            let extra = sim.extra_latency in
            if extra > 0 then e.stall_until <- sim.cycle + extra;
            if status_running e.status && e.overflow_squash_pending then begin
              cascade_squash sim st e.ep_index;
              e.hold_until_oldest <- true
            end
            else if
              status_running e.status
              && e.attempt_instrs > sim.cfg.Config.epoch_max_instrs
            then begin
              if is_oldest st e then
                if List.exists (fun (_, _, _, p) -> p) e.pending_preds
                then begin
                  sim.violations <- sim.violations + 1;
                  cascade_squash sim st e.ep_index
                end
                else failwith "Sim: oldest epoch exceeded the instruction cap"
              else begin
                squash sim st e;
                e.hold_until_oldest <- true
              end
            end
            else graduate_slots sim st e (slots - 1)
          | 1 ->
            e.a_sync <- e.a_sync + slots;
            add_sync_chan e e.last_block slots
          | 2 -> e.status <- Done
          | _ ->
            e.exitk <- Some (Exit_return sim.step_rv);
            e.status <- Done
        end
      end
    end

let graduate sim st e =
  e.blocked <- false;
  e.park_kind <- 0;
  graduate_slots sim st e sim.cfg.Config.issue_width

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

let verify_predictions sim e =
  List.for_all
    (fun (_, addr, used, was_predicted) ->
      (not was_predicted) || Runtime.Memory.get sim.committed addr = used)
    e.pending_preds

let train_predictions sim e =
  List.iter
    (fun (iid, addr, _, _) ->
      Vpred.train sim.vpred iid
        ~actual:(Runtime.Memory.get sim.committed addr))
    e.pending_preds

let accumulate_attempt sim e =
  sim.slots.Simstats.s_busy <- sim.slots.Simstats.s_busy + e.a_busy;
  sim.slots.Simstats.s_sync <- sim.slots.Simstats.s_sync + e.a_sync;
  sim.slots.Simstats.s_other_stall <-
    sim.slots.Simstats.s_other_stall + e.a_other;
  Scratch.iter
    (fun ch n ->
      Hashtbl.replace sim.sync_by_channel ch
        (n + Option.value ~default:0 (Hashtbl.find_opt sim.sync_by_channel ch)))
    e.a_sync_chan

let spurious_violation_fires sim =
  match
    List.find_opt
      (fun fault ->
        match fault with
        | Config.Spurious_violation k ->
          k = sim.committed_epochs && not (Hashtbl.mem sim.fired fault)
        | _ -> false)
      sim.cfg.Config.sim_faults
  with
  | Some fault ->
    mark_fired sim fault;
    true
  | None -> false

let try_commit sim st =
  if sim.cycle >= st.ts_commit_ready then begin
    match epoch_at st st.ts_oldest with
    | Some e when status_done e.status ->
      if spurious_violation_fires sim then begin
        sim.violations <- sim.violations + 1;
        cascade_squash sim st e.ep_index
      end
      else if
        sim.cfg.Config.hw_value_predict
        && not (verify_predictions sim e)
      then begin
        sim.violations <- sim.violations + 1;
        train_predictions sim e;
        cascade_squash sim st e.ep_index
      end
      else begin
        if sim.cfg.Config.hw_value_predict then train_predictions sim e;
        (* Commit-time violations: uncommitted-store-then-load staleness.
           [write_lines] iteration order determines the violate victim —
           the table's op sequence matches the reference engine's, so the
           order (and the attributed load) is identical. *)
        Hashtbl.iter
          (fun line () -> scan_line_readers sim st line (e.ep_index + 1))
          e.write_lines;
        Scratch.iter
          (fun addr v -> Runtime.Memory.store sim.committed addr v)
          e.spec_writes;
        drain_thread_output sim e.ep_thread;
        accumulate_attempt sim e;
        e.status <- Committed;
        sim.last_progress <- sim.cycle;
        sim.committed_epochs <- sim.committed_epochs + 1;
        st.ts_commit_ready <- sim.cycle + sim.cfg.Config.commit_overhead;
        (match e.exitk with
        | Some Exit_back -> st.ts_oldest <- st.ts_oldest + 1
        | Some (Exit_out _ | Exit_return _) ->
          st.ts_ended <- true;
          st.ts_winner <- Some e
        | None -> assert false);
        (* The new oldest's wait may now deadlock (committed predecessor
           that never signaled) or unhold; re-poll parked epochs. *)
        dirty_all st
      end
    | Some _ | None -> ()
  end

(* A Done epoch whose exit is speculative (not the back edge) blocks
   further spawns; top-level because this runs every TLS cycle. *)
let rec spec_exit_pending st k =
  k < st.ts_next_spawn
  &&
  match epoch_at st k with
  | Some e when
      status_done e.status
      && (match e.exitk with Some Exit_back -> false | _ -> true) ->
    true
  | _ -> spec_exit_pending st (k + 1)

let spawn_epochs sim st =
  if not (spec_exit_pending st st.ts_oldest) then
    while
      st.ts_next_spawn < st.ts_oldest + sim.cfg.Config.num_procs
      && not st.ts_ended
    do
      let idx = st.ts_next_spawn in
      let e = fresh_epoch sim st idx in
      st.ring.(idx land (st.cap - 1)) <- Some e;
      st.ts_next_spawn <- idx + 1
    done

(* ------------------------------------------------------------------ *)
(* TLS cycle                                                           *)
(* ------------------------------------------------------------------ *)

let procs_slots sim = sim.cfg.Config.num_procs * sim.cfg.Config.issue_width

(* Per-cycle slot scan over the live epoch window; top-level so the
   TLS cycle allocates nothing. *)
let rec step_epochs sim st width k =
  if k < st.ts_next_spawn && not st.ts_ended then begin
    (match epoch_at st k with
    | Some e when status_running e.status ->
      (* Parked poller fast path: the wait would re-poll to the same
         blocked outcome (wake time not reached, producer state
         unchanged), so apply the charge the failed poll would. *)
      if
        e.park_kind <> 0
        && (not e.park_dirty)
        && e.stall_until <= sim.cycle
        && sim.cycle < e.wake_at
        && (not e.hold_until_oldest)
        && (not e.overflow_hold)
        && (e.park_kind <> 3 || not (is_oldest st e))
      then begin
        e.a_sync <- e.a_sync + width;
        add_sync_chan e e.last_block width;
        if e.park_kind = 1 then
          sim.f_blocked_waits <- sim.f_blocked_waits + 1
      end
      else graduate sim st e
    | _ -> ());
    step_epochs sim st width (k + 1)
  end

(* Wake cycle of an epoch as the reference fast-forward computes it. *)
let[@inline] wake_of sim e =
  if not (status_running e.status) then max_int
  else if e.stall_until > sim.cycle then e.stall_until
  else if e.blocked then e.wake_at
  else max_int

(* Fast-forward when every epoch is stalled with a known wake time.  The
   skip target is the minimum of [wake_of] over the live window — every
   stall or wake assignment is a field of some live epoch, and the
   window is at most [num_procs + 1] slots, so the direct scan is
   cheaper than maintaining a priority queue of wake events (which this
   engine originally did: the queue paid heap traffic on every mul/div
   stall only to be revalidated against these same fields on pop). *)
(* An epoch that could issue this cycle (so no skip may happen).
   Top-level scans: these run every TLS cycle. *)
let rec ff_runnable sim st k =
  k < st.ts_next_spawn
  &&
  match epoch_at st k with
  | Some e when
      status_running e.status && e.stall_until <= sim.cycle
      && not (e.blocked && e.wake_at > sim.cycle) ->
    true
  | _ -> ff_runnable sim st (k + 1)

(* Earliest wake cycle over the live window. *)
let rec ff_min_wake sim st k acc =
  if k >= st.ts_next_spawn then acc
  else
    let acc =
      match epoch_at st k with
      | Some e ->
        let w = wake_of sim e in
        if w < acc then w else acc
      | None -> acc
    in
    ff_min_wake sim st (k + 1) acc

let fast_forward sim st =
  let can_act_now =
    ff_runnable sim st st.ts_oldest
    || (match epoch_at st st.ts_oldest with
       | Some e -> status_done e.status && sim.cycle >= st.ts_commit_ready
       | None -> false)
  in
  if can_act_now then ()
  else begin
    let next = ff_min_wake sim st st.ts_oldest max_int in
    let next =
      match epoch_at st st.ts_oldest with
      | Some e when status_done e.status -> min next st.ts_commit_ready
      | _ -> next
    in
    if next = max_int || next <= sim.cycle then ()
    else begin
      let skip = next - sim.cycle in
      let w = sim.cfg.Config.issue_width in
      for k = st.ts_oldest to st.ts_next_spawn - 1 do
        match epoch_at st k with
        | Some e when status_running e.status ->
          if e.blocked then begin
            e.a_sync <- e.a_sync + (skip * w);
            add_sync_chan e e.last_block (skip * w)
          end
          else e.a_other <- e.a_other + (skip * w)
        | _ -> ()
      done;
      sim.slots.Simstats.s_total <-
        sim.slots.Simstats.s_total + (skip * procs_slots sim);
      sim.region_wall <- sim.region_wall + skip;
      sim.cycle <- sim.cycle + skip
    end
  end

let tls_cycle sim st =
  if sim.cycle - sim.last_progress > sim.cfg.Config.watchdog_window then begin
    (match
       List.find_opt (fun e -> e.bp_channel >= 0) (active_epochs st)
     with
    | Some e ->
      raise
        (Resource_deadlock
           {
             rd_cycle = sim.cycle;
             rd_region = st.ts_region.Ir.Region.id;
             rd_func = st.ts_region.Ir.Region.func;
             rd_producer = e.ep_index;
             rd_channel = e.bp_channel;
             rd_depth = sim.cfg.Config.fwd_queue_depth;
             rd_epochs = List.map epoch_diag_of (active_epochs st);
           })
    | None -> ());
    raise
      (Stuck
         (stuck_diag_of sim st
            (No_progress { window = sim.cfg.Config.watchdog_window })))
  end;
  Hwsync.tick sim.hwsync ~now:sim.cycle;
  fast_forward sim st;
  sim.slots.Simstats.s_total <- sim.slots.Simstats.s_total + procs_slots sim;
  sim.region_wall <- sim.region_wall + 1;
  step_epochs sim st sim.cfg.Config.issue_width st.ts_oldest;
  if not st.ts_ended then try_commit sim st;
  if not st.ts_ended then spawn_epochs sim st;
  sim.cycle <- sim.cycle + 1

let finish_instance sim st =
  let winner =
    match st.ts_winner with
    | Some e -> e
    | None -> failwith "Sim.finish_instance: no winner"
  in
  Array.iter
    (fun slot ->
      match slot with
      | Some e -> begin
        match e.status with
        | Running | Done ->
          sim.squashed_epochs <- sim.squashed_epochs + 1;
          sim.slots.Simstats.s_fail <-
            sim.slots.Simstats.s_fail + e.a_busy + e.a_sync + e.a_other;
          e.status <- Discarded
        | Committed | Discarded -> ()
      end
      | None -> ())
    st.ring;
  let prev =
    match Hashtbl.find_opt sim.region_wall_by_id st.ts_region.Ir.Region.id with
    | Some c -> c
    | None -> 0
  in
  Hashtbl.replace sim.region_wall_by_id st.ts_region.Ir.Region.id
    (prev + (sim.cycle - st.ts_start_cycle));
  (match winner.exitk with
  | Some (Exit_out target) ->
    let seq_frame = Runtime.Thread.current_frame sim.seq_thread in
    let ep_frame = Runtime.Thread.current_frame winner.ep_thread in
    Array.blit ep_frame.Runtime.Thread.regs 0 seq_frame.Runtime.Thread.regs 0
      (Array.length seq_frame.Runtime.Thread.regs);
    seq_frame.Runtime.Thread.block <- target;
    seq_frame.Runtime.Thread.pc <-
      block_entry sim seq_frame.Runtime.Thread.cfunc target
  | Some (Exit_return rv) -> begin
    match sim.seq_thread.Runtime.Thread.frames with
    | f :: rest ->
      (match rest with
      | caller :: _ ->
        (match f.Runtime.Thread.ret_to, rv with
        | Some dst, Some v -> caller.Runtime.Thread.regs.(dst) <- v
        | Some dst, None -> caller.Runtime.Thread.regs.(dst) <- 0
        | None, _ -> ());
        sim.seq_thread.Runtime.Thread.frames <- rest
      | [] ->
        sim.seq_thread.Runtime.Thread.frames <- [];
        sim.finished <- true)
    | [] -> sim.finished <- true
  end
  | Some Exit_back | None -> failwith "Sim.finish_instance: bad winner exit");
  sim.mode <- Seq

(* ------------------------------------------------------------------ *)
(* Sequential engine                                                   *)
(* ------------------------------------------------------------------ *)

(* Header-indexed regions of the current frame's function, memoized on
   physical equality of the cfunc. *)
let seq_regions_of sim (f : Runtime.Thread.frame) =
  match sim.cur_cfunc with
  | Some c when c == f.Runtime.Thread.cfunc -> sim.cur_regions
  | _ ->
    let arr =
      match
        Hashtbl.find_opt sim.region_arrays
          f.Runtime.Thread.cfunc.Runtime.Code.cf_name
      with
      | Some arr -> arr
      | None -> [||]
    in
    sim.cur_cfunc <- Some f.Runtime.Thread.cfunc;
    sim.cur_regions <- arr;
    arr

(* One sequential instruction with the reference seq-hook semantics,
   over the flat encoding like [epoch_step]: loads/stores time through
   the memory system against committed state, sync instructions are
   transparent, and a goto onto a region header suspends into TLS
   mode. *)
let seq_step sim =
  let t = sim.seq_thread in
  match t.Runtime.Thread.frames with
  | [] -> failwith "Thread: step on finished thread"
  | f :: _ ->
    let fn =
      Array.unsafe_get sim.ic_funcs
        f.Runtime.Thread.cfunc.Runtime.Code.cf_id
    in
    let code = fn.Icode.code in
    let regs = f.Runtime.Thread.regs in
    let pc = f.Runtime.Thread.pc in
    let w = Array.unsafe_get code pc in
    let op = w land 0xff in
    if op < 16 then begin
      let a = Array.unsafe_get code (pc + 3) in
      let av = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
      let b = Array.unsafe_get code (pc + 4) in
      let bv = if w land 0x200 <> 0 then b else Array.unsafe_get regs b in
      Array.unsafe_set regs
        (Array.unsafe_get code (pc + 2))
        (Icode.eval_binop_i op av bv);
      if op = 2 then sim.extra_latency <- sim.cfg.Config.lat_mul - 1
      else if op = 3 || op = 4 then
        sim.extra_latency <- sim.cfg.Config.lat_div - 1;
      finish_ic t f pc 5
    end
    else
      match op with
      | 16 (* Mov *) ->
        let a = Array.unsafe_get code (pc + 3) in
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (if w land 0x100 <> 0 then a else Array.unsafe_get regs a);
        finish_ic t f pc 4
      | 17 (* Load *) ->
        let a = Array.unsafe_get code (pc + 3) in
        let addr = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        sim.extra_latency <- Memsys.access sim.memsys ~proc:0 ~addr - 1;
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (Runtime.Memory.get sim.committed addr);
        finish_ic t f pc 4
      | 18 (* Store *) ->
        let a = Array.unsafe_get code (pc + 2) in
        let addr = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        sim.extra_latency <- Memsys.access sim.memsys ~proc:0 ~addr - 1;
        let v = Array.unsafe_get code (pc + 3) in
        Runtime.Memory.store sim.committed addr
          (if w land 0x200 <> 0 then v else Array.unsafe_get regs v);
        finish_ic t f pc 4
      | 19 (* Call *) ->
        let fidx = Array.unsafe_get code (pc + 2) in
        if fidx < 0 then
          failwith
            ("Thread: call to unknown function " ^ sim.ic_names.(-fidx - 1))
        else begin
          let callee = (Array.unsafe_get sim.ic_funcs fidx).Icode.fn_cfunc in
          let callee_regs = Array.make callee.Runtime.Code.cf_nregs 0 in
          let nargs = Array.unsafe_get code (pc + 4) in
          bind_args code regs callee_regs callee.Runtime.Code.cf_params
            (pc + 5) nargs 0;
          f.Runtime.Thread.pc <- pc + 5 + (2 * nargs);
          t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
          let callee_frame =
            {
              Runtime.Thread.cfunc = callee;
              regs = callee_regs;
              block = 0;
              pc = 0;
              ret_to = Array.unsafe_get sim.ic_ret_opts code.(pc + 3);
              call_iid = Array.unsafe_get code (pc + 1);
            }
          in
          t.Runtime.Thread.frames <- callee_frame :: t.Runtime.Thread.frames;
          0
        end
      | 20 (* Print *) ->
        let a = Array.unsafe_get code (pc + 2) in
        t.Runtime.Thread.output <-
          (if w land 0x100 <> 0 then a else Array.unsafe_get regs a)
          :: t.Runtime.Thread.output;
        finish_ic t f pc 3
      | 21 (* Input *) ->
        let a = Array.unsafe_get code (pc + 3) in
        let idx = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        let input = t.Runtime.Thread.input in
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (if idx >= 0 && idx < Array.length input then input.(idx) else 0);
        finish_ic t f pc 4
      | 22 (* Input_len *) ->
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 2))
          (Array.length t.Runtime.Thread.input);
        finish_ic t f pc 3
      | 23 (* Wait_scalar: sequentially the identity. *) -> finish_ic t f pc 4
      | 24 (* Signal_scalar *) -> finish_ic t f pc 4
      | 25 (* Wait_mem *) -> finish_ic t f pc 3
      | 26 (* Sync_load *) ->
        let a = Array.unsafe_get code (pc + 4) in
        let addr = if w land 0x100 <> 0 then a else Array.unsafe_get regs a in
        Array.unsafe_set regs
          (Array.unsafe_get code (pc + 3))
          (Runtime.Memory.get sim.committed addr);
        finish_ic t f pc 5
      | 27 | 28 (* Signal_mem / _if_unsent *) -> finish_ic t f pc 4
      | 29 | 30 (* Signal_null / _if_unsent *) -> finish_ic t f pc 3
      | _ ->
        let goto target off =
          let proceed =
            let arr = seq_regions_of sim f in
            if target < Array.length arr then begin
              match arr.(target) with
              | Some r ->
                sim.pending_region <- Some r;
                false
              | None -> true
            end
            else true
          in
          if proceed then begin
            f.Runtime.Thread.block <- target;
            f.Runtime.Thread.pc <- off;
            t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
            0
          end
          else 2
        in
        if op = 31 (* Jmp *) then
          goto (Array.unsafe_get code (pc + 1)) (Array.unsafe_get code (pc + 2))
        else if op = 32 (* Br *) then begin
          let c = Array.unsafe_get code (pc + 1) in
          let cv = if w land 0x100 <> 0 then c else Array.unsafe_get regs c in
          if cv <> 0 then
            goto
              (Array.unsafe_get code (pc + 2))
              (Array.unsafe_get code (pc + 4))
          else
            goto
              (Array.unsafe_get code (pc + 3))
              (Array.unsafe_get code (pc + 5))
        end
        else begin
          (* Ret *)
          t.Runtime.Thread.icount <- t.Runtime.Thread.icount + 1;
          match t.Runtime.Thread.frames with
          | [ _ ] ->
            t.Runtime.Thread.frames <- [];
            sim.step_rv <-
              (if w land 0x100 = 0 then None
               else
                 Some
                   (let v = Array.unsafe_get code (pc + 1) in
                    if w land 0x200 <> 0 then v else Array.unsafe_get regs v));
            3
          | _ :: (caller :: _ as rest) ->
            (match f.Runtime.Thread.ret_to with
            | Some dst ->
              caller.Runtime.Thread.regs.(dst) <-
                (if w land 0x100 = 0 then 0
                 else
                   let v = Array.unsafe_get code (pc + 1) in
                   if w land 0x200 <> 0 then v else Array.unsafe_get regs v)
            | None -> ());
            t.Runtime.Thread.frames <- rest;
            0
          | [] -> failwith "Thread: step on finished thread"
        end

let enter_tls sim (r : Ir.Region.t) =
  let instance =
    match Hashtbl.find_opt sim.instance_counters r.Ir.Region.id with
    | Some n -> n
    | None -> 0
  in
  Hashtbl.replace sim.instance_counters r.Ir.Region.id (instance + 1);
  let seq_frame = Runtime.Thread.current_frame sim.seq_thread in
  let base = Runtime.Thread.copy_frame seq_frame in
  base.Runtime.Thread.block <- r.Ir.Region.header;
  base.Runtime.Thread.pc <-
    block_entry sim base.Runtime.Thread.cfunc r.Ir.Region.header;
  let entry_sent = Hashtbl.create 8 in
  List.iter
    (fun (sc : Ir.Region.scalar_channel) ->
      Hashtbl.replace entry_sent sc.Ir.Region.sc_id
        {
          se_payload = P_scalar base.Runtime.Thread.regs.(sc.Ir.Region.sc_reg);
          se_avail = sim.cycle;
        })
    r.Ir.Region.scalar_channels;
  List.iter
    (fun (mg : Ir.Region.mem_group) ->
      Hashtbl.replace entry_sent mg.Ir.Region.mg_id
        { se_payload = P_mem (0, 0); se_avail = sim.cycle })
    r.Ir.Region.mem_groups;
  let channels =
    Int_set.union
      (Int_set.of_list
         (List.map (fun (sc : Ir.Region.scalar_channel) -> sc.Ir.Region.sc_id)
            r.Ir.Region.scalar_channels))
      (Int_set.of_list
         (List.map (fun (mg : Ir.Region.mem_group) -> mg.Ir.Region.mg_id)
            r.Ir.Region.mem_groups))
  in
  let comp_loads =
    Int_set.of_list
      (List.concat_map
         (fun (mg : Ir.Region.mem_group) -> mg.Ir.Region.mg_loads)
         r.Ir.Region.mem_groups)
  in
  drain_thread_output sim sim.seq_thread;
  (* The live window is [ts_oldest-1, ts_next_spawn), at most
     num_procs+1 slots wide; the next power of two keeps indexing a
     mask. *)
  let cap =
    let rec up c = if c > sim.cfg.Config.num_procs then c else up (c * 2) in
    up 1
  in
  let st =
    {
      ts_region = r;
      ts_instance = instance;
      ts_base = base;
      ts_blocks = Int_set.of_list r.Ir.Region.blocks;
      ts_channels = channels;
      ts_comp_loads = comp_loads;
      ts_entry_sent = entry_sent;
      ring = Array.make cap None;
      cap;
      ts_oldest = 0;
      ts_next_spawn = 0;
      ts_commit_ready = 0;
      ts_ended = false;
      ts_winner = None;
      ts_start_cycle = sim.cycle;
    }
  in
  spawn_epochs sim st;
  sim.last_progress <- sim.cycle;
  sim.mode <- Tls st

let seq_cycle sim =
  if sim.seq_stall_until > sim.cycle then begin
    let skip = sim.seq_stall_until - sim.cycle in
    sim.cycle <- sim.cycle + skip;
    sim.seq_cycles <- sim.seq_cycles + skip
  end;
  (* Slot loop as a counted recursion: a ref-cell [while] would
     allocate two cells per sequential cycle. *)
  let rec go slots =
    if slots > 0 && not sim.finished then begin
      sim.extra_latency <- 0;
      match seq_step sim with
      | 0 ->
        if sim.extra_latency > 0 then
          sim.seq_stall_until <- sim.cycle + sim.extra_latency
        else go (slots - 1)
      | 2 -> begin
        match sim.pending_region with
        | Some r ->
          sim.pending_region <- None;
          enter_tls sim r
        | None -> failwith "Sim: sequential thread suspended without a region"
      end
      | 1 -> failwith "Sim: sequential thread blocked"
      | _ -> sim.finished <- true
    end
  in
  go sim.cfg.Config.issue_width;
  sim.cycle <- sim.cycle + 1;
  sim.seq_cycles <- sim.seq_cycles + 1

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let create_sim cfg code ~input ~oracle =
  let committed = Runtime.Memory.create () in
  Runtime.Memory.store_all committed code.Runtime.Code.initial_stores;
  let regions_by_func = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.Region.t) ->
      let prev =
        match Hashtbl.find_opt regions_by_func r.Ir.Region.func with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace regions_by_func r.Ir.Region.func (r :: prev))
    code.Runtime.Code.regions;
  let region_arrays = Hashtbl.create 8 in
  Hashtbl.iter
    (fun fname regions ->
      match Hashtbl.find_opt code.Runtime.Code.funcs fname with
      | None -> ()
      | Some cf ->
        let arr =
          Array.make (Array.length cf.Runtime.Code.cf_blocks) None
        in
        (* [regions_by_func] lists are built by consing, so the LAST
           region in program order is first; the reference engine's
           [List.find_opt] scans that same order.  Filling the array in
           reverse makes the first-scanned region win on duplicate
           headers, matching [find_opt]. *)
        List.iter
          (fun (r : Ir.Region.t) ->
            let h = r.Ir.Region.header in
            if h >= 0 && h < Array.length arr && arr.(h) = None then
              arr.(h) <- Some r)
          regions;
        Hashtbl.replace region_arrays fname arr)
    regions_by_func;
  let parking_enabled =
    (not cfg.Config.filter_useless_sync)
    && not
         (List.exists
            (fun f -> match f with Config.Drop_wakeup _ -> true | _ -> false)
            cfg.Config.sim_faults)
  in
  let ic = Icode.of_code code in
  {
    cfg;
    code;
    memsys = Memsys.create cfg;
    hwsync =
      Hwsync.create ~size:cfg.Config.hw_table_size
        ~reset_interval:cfg.Config.hw_reset_interval;
    vpred = Vpred.create ~stride:cfg.Config.vpred_stride;
    oracle;
    committed;
    seq_thread = Runtime.Thread.create code ~func_name:"main" ~input;
    regions_by_func;
    region_arrays;
    cur_cfunc = None;
    cur_regions = [||];
    instance_counters = Hashtbl.create 8;
    mode = Seq;
    cycle = 0;
    seq_cycles = 0;
    region_wall = 0;
    seq_stall_until = 0;
    pending_region = None;
    extra_latency = 0;
    finished = false;
    output_rev = [];
    slots = Simstats.fresh_slots ();
    attribution = Simstats.fresh_attribution ();
    violations = 0;
    committed_epochs = 0;
    squashed_epochs = 0;
    max_sig_buffer = 0;
    ever_marked = Hashtbl.create 64;
    region_wall_by_id = Hashtbl.create 8;
    chan_stats = Hashtbl.create 32;
    sync_by_channel = Hashtbl.create 32;
    violated_loads = Hashtbl.create 16;
    last_progress = 0;
    f_mem_signals = 0;
    f_blocked_waits = 0;
    fired = Hashtbl.create 4;
    dropped_wakeups = Hashtbl.create 4;
    resources = Simstats.fresh_resources ();
    parking_enabled;
    ic_funcs = ic.Icode.funcs;
    ic_names = ic.Icode.names;
    ic_ret_opts = ic.Icode.ret_opts;
    rcv_v = 0;
    rcv_avail = 0;
    sig_a = 0;
    sig_v = 0;
    step_rv = None;
  }

let run cfg code ~input ?oracle () =
  let max_cycles = cfg.Config.max_cycles in
  let result, runtime = Simstats.with_runtime_counters @@ fun () ->
  let sim = create_sim cfg code ~input ~oracle in
  while not sim.finished do
    if sim.cycle > max_cycles then
      raise
        (Cycle_limit { max_cycles; cycle = sim.cycle; where = "Sim.run" });
    match sim.mode with
    | Seq -> seq_cycle sim
    | Tls st ->
      tls_cycle sim st;
      if st.ts_ended then finish_instance sim st
  done;
  drain_thread_output sim sim.seq_thread;
  let l1_accesses = Memsys.l1_hits sim.memsys + Memsys.l1_misses sim.memsys in
  sim.resources.Simstats.rs_hw_evictions <- Hwsync.evictions sim.hwsync;
  sim.resources.Simstats.rs_peak_hw_table <- Hwsync.peak sim.hwsync;
  {
    Simstats.total_cycles = sim.cycle;
    seq_cycles = sim.seq_cycles;
    region_cycles = sim.region_wall;
    slots = sim.slots;
    violations = sim.violations;
    attribution = sim.attribution;
    epochs_committed = sim.committed_epochs;
    epochs_squashed = sim.squashed_epochs;
    output = List.rev sim.output_rev;
    final_memory = sim.committed;
    max_signal_buffer = sim.max_sig_buffer;
    region_cycle_by_id =
      Hashtbl.fold (fun id c acc -> (id, c) :: acc) sim.region_wall_by_id []
      |> List.sort compare;
    region_instances =
      Hashtbl.fold (fun id c acc -> (id, c) :: acc) sim.instance_counters []
      |> List.sort compare;
    l1_miss_rate =
      (if l1_accesses = 0 then 0.0
       else float_of_int (Memsys.l1_misses sim.memsys) /. float_of_int l1_accesses);
    hw_marked_loads = Hashtbl.length sim.ever_marked;
    vpred_predictions = Vpred.predictions sim.vpred;
    faults_fired = Hashtbl.length sim.fired;
    runtime = Simstats.no_runtime;
    resources = sim.resources;
    sync_stall_by_channel =
      Hashtbl.fold (fun ch n acc -> (ch, n) :: acc) sim.sync_by_channel []
      |> List.sort compare;
    violated_load_counts =
      Hashtbl.fold (fun iid n acc -> (iid, n) :: acc) sim.violated_loads []
      |> List.sort compare;
  }
  in
  { result with Simstats.runtime }

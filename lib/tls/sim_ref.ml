(* The reference cycle-stepped engine (the oracle): byte-for-byte the
   original Sim implementation.  Sim_event must match every observable
   of this engine exactly (DESIGN §15); the differential suite enforces
   it.  Shared diagnostics live in Simdiag.  *)

include Simdiag

module Int_set = Set.Make (Int)

type payload =
  | P_scalar of int
  | P_mem of int * int          (* address (0 = NULL), value *)

type sent_entry = { se_payload : payload; se_avail : int }

type estatus = Running | Done | Committed | Discarded

type exitkind = Exit_back | Exit_out of int | Exit_return of int option

type epoch = {
  ep_index : int;
  mutable ep_thread : Runtime.Thread.t;
  mutable status : estatus;
  mutable exitk : exitkind option;
  spec_writes : (int, int) Hashtbl.t;
  read_lines : (int, Ir.Instr.iid) Hashtbl.t;
  write_lines : (int, unit) Hashtbl.t;
  sent : (Ir.Instr.channel, sent_entry) Hashtbl.t;
  consumed : (Ir.Instr.channel, payload) Hashtbl.t;
  sig_buffer : (Ir.Instr.channel, int) Hashtbl.t;
  spec_lines : (int, unit) Hashtbl.t;       (* union of read/write keys *)
  occ : (Ir.Instr.iid, int) Hashtbl.t;      (* oracle occurrence counters *)
  mutable pending_preds : (Ir.Instr.iid * int * int * bool) list;
  mutable stall_until : int;
  mutable blocked : bool;
  mutable wake_at : int;                    (* max_int = poll every cycle *)
  mutable last_block : Ir.Instr.channel option;  (* diagnostic only *)
  mutable a_busy : int;
  mutable a_sync : int;
  mutable a_other : int;
  a_sync_chan : (Ir.Instr.channel, int) Hashtbl.t;
      (* attempt sync slots split by blocking channel (compiler sync only;
         hardware-sync stalls have no channel and stay unattributed) *)
  mutable attempt_instrs : int;
  mutable restarts : int;
  mutable hold_until_oldest : bool;
  mutable overflow_hold : bool;             (* parked by Overflow_stall *)
  mutable overflow_squash_pending : bool;   (* Overflow_squash deferred to
                                               graduate: hooks must not
                                               squash mid-instruction *)
  mutable bp_channel : Ir.Instr.channel option;  (* backpressure-stalled on *)
  mutable hooks : Runtime.Thread.hooks option;  (* built once per epoch *)
}

type tls_state = {
  ts_region : Ir.Region.t;
  ts_instance : int;
  ts_base : Runtime.Thread.frame;
  ts_blocks : Int_set.t;
  ts_channels : Int_set.t;                  (* this region's channel ids *)
  ts_comp_loads : Int_set.t;                (* compiler-synchronized loads *)
  ts_entry_sent : (Ir.Instr.channel, sent_entry) Hashtbl.t;
  epochs : (int, epoch) Hashtbl.t;
  mutable ts_oldest : int;
  mutable ts_next_spawn : int;
  mutable ts_commit_ready : int;            (* commits are serialized *)
  mutable ts_ended : bool;
  mutable ts_winner : epoch option;
  ts_start_cycle : int;
}

type mode = Seq | Tls of tls_state

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
  (* Forwarding usefulness per channel, for the filter_useless_sync
     enhancement: how often the forwarded address matched the load. *)
  chan_stats : (Ir.Instr.channel, int * int) Hashtbl.t;  (* matched, seen *)
  (* Committed sync-stall slots per blocking compiler channel, and
     violation counts per flagged load — the measurements {!Staticcost}
     predictions are validated against. *)
  sync_by_channel : (Ir.Instr.channel, int) Hashtbl.t;
  violated_loads : (Ir.Instr.iid, int) Hashtbl.t;
  (* Robustness harness (DESIGN §11): watchdog + fault injection. *)
  mutable last_progress : int;     (* cycle of the last graduation/commit *)
  mutable f_mem_signals : int;     (* dynamic memory-signal counter *)
  mutable f_blocked_waits : int;   (* dynamic blocking mem-wait counter *)
  fired : (Config.sim_fault, unit) Hashtbl.t;      (* faults already armed *)
  dropped_wakeups : (int * Ir.Instr.channel, unit) Hashtbl.t;
      (* (epoch index, channel) pairs whose wake-up was dropped; persists
         across squashes so a restarted epoch stays condemned *)
  resources : Simstats.resources;  (* finite-resource accounting (§12) *)
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let line_of sim addr = Memsys.line_of sim.memsys addr

(* Key of the speculative read/write sets: cache line normally, the word
   itself under per-word access bits (Cintra & Torrellas [8]). *)
let track_key sim addr =
  if sim.cfg.Config.word_level_tracking then addr else line_of sim addr

let drain_thread_output sim (t : Runtime.Thread.t) =
  sim.output_rev <- t.Runtime.Thread.output @ sim.output_rev;
  t.Runtime.Thread.output <- []

let epoch_proc sim e = e.ep_index mod sim.cfg.Config.num_procs

let is_oldest st e = e.ep_index = st.ts_oldest

let active_epochs st =
  let rec collect k acc =
    if k >= st.ts_next_spawn then List.rev acc
    else
      match Hashtbl.find_opt st.epochs k with
      | Some e when e.status = Running || e.status = Done ->
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
    ed_last_block = e.last_block;
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

(* One blocking wait on a memory channel: advance the deterministic wait
   counter and, if a Drop_wakeup fault targets this wait, condemn the
   (epoch, channel) pair so the signal's arrival is never delivered. *)
let note_blocked_wait sim e ch =
  let n = sim.f_blocked_waits in
  sim.f_blocked_waits <- n + 1;
  List.iter
    (fun fault ->
      match fault with
      | Config.Drop_wakeup k when k = n ->
        mark_fired sim fault;
        Hashtbl.replace sim.dropped_wakeups (e.ep_index, ch) ();
        e.wake_at <- max_int
      | _ -> ())
    sim.cfg.Config.sim_faults

let fresh_epoch sim st index =
  let frame = Runtime.Thread.copy_frame st.ts_base in
  let thread =
    Runtime.Thread.create_from_frame sim.code frame
      ~input:sim.seq_thread.Runtime.Thread.input
  in
  {
    ep_index = index;
    ep_thread = thread;
    status = Running;
    exitk = None;
    spec_writes = Hashtbl.create 64;
    read_lines = Hashtbl.create 64;
    write_lines = Hashtbl.create 16;
    sent = Hashtbl.create 8;
    consumed = Hashtbl.create 8;
    sig_buffer = Hashtbl.create 4;
    spec_lines = Hashtbl.create 64;
    occ = Hashtbl.create 16;
    pending_preds = [];
    stall_until = sim.cycle + sim.cfg.Config.spawn_overhead;
    blocked = false;
    wake_at = max_int;
    last_block = None;
    a_busy = 0;
    a_sync = 0;
    a_other = 0;
    a_sync_chan = Hashtbl.create 4;
    attempt_instrs = 0;
    restarts = 0;
    hold_until_oldest = false;
    overflow_hold = false;
    overflow_squash_pending = false;
    bp_channel = None;
    hooks = None;
  }

(* Attribute [n] of the attempt's sync slots to compiler channel [ch]
   (None = a hardware-sync or channel-less stall, left unattributed). *)
let add_sync_chan e ch n =
  match ch with
  | None -> ()
  | Some ch ->
    if n > 0 then
      Hashtbl.replace e.a_sync_chan ch
        (n + Option.value ~default:0 (Hashtbl.find_opt e.a_sync_chan ch))

let reset_attempt sim st e =
  sim.slots.Simstats.s_fail <-
    sim.slots.Simstats.s_fail + e.a_busy + e.a_sync + e.a_other;
  e.a_busy <- 0;
  e.a_sync <- 0;
  e.a_other <- 0;
  Hashtbl.reset e.a_sync_chan;
  e.attempt_instrs <- 0;
  Hashtbl.reset e.spec_writes;
  Hashtbl.reset e.read_lines;
  Hashtbl.reset e.write_lines;
  Hashtbl.reset e.sent;
  Hashtbl.reset e.consumed;
  Hashtbl.reset e.sig_buffer;
  Hashtbl.reset e.spec_lines;
  Hashtbl.reset e.occ;
  e.pending_preds <- [];
  e.overflow_hold <- false;
  e.overflow_squash_pending <- false;
  e.bp_channel <- None;
  let frame = Runtime.Thread.copy_frame st.ts_base in
  e.ep_thread <-
    Runtime.Thread.create_from_frame sim.code frame
      ~input:sim.seq_thread.Runtime.Thread.input

let squash sim st e =
  if e.status = Running || e.status = Done then begin
    sim.squashed_epochs <- sim.squashed_epochs + 1;
    reset_attempt sim st e;
    e.status <- Running;
    e.exitk <- None;
    e.blocked <- false;
    e.wake_at <- max_int;
    e.stall_until <- sim.cycle + sim.cfg.Config.violation_penalty;
    e.restarts <- e.restarts + 1;
    if e.restarts > sim.cfg.Config.max_restarts_before_hold then
      e.hold_until_oldest <- true
  end

(* Squash [victim] and every younger epoch (cascading restart).  Restarts
   are staggered by the spawn overhead — squashed epochs re-dispatch
   serially, as the lightweight-fork hardware would — which also restores
   the pipeline skew that keeps non-dependent epochs from racing. *)
let cascade_squash sim st victim_idx =
  for k = victim_idx to st.ts_next_spawn - 1 do
    match Hashtbl.find_opt st.epochs k with
    | Some e ->
      squash sim st e;
      e.stall_until <-
        e.stall_until + (sim.cfg.Config.spawn_overhead * (k - victim_idx))
    | None -> ()
  done

(* A dependence violation on [victim_idx], first observed through load
   [load_iid]: record attribution, teach the hardware table, cascade. *)
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

let sent_of_predecessor st e ch =
  if e.ep_index = 0 then Hashtbl.find_opt st.ts_entry_sent ch
  else
    match Hashtbl.find_opt st.epochs (e.ep_index - 1) with
    | Some pred -> Hashtbl.find_opt pred.sent ch
    | None -> None

let predecessor_finished st e =
  if e.ep_index = 0 then true
  else
    match Hashtbl.find_opt st.epochs (e.ep_index - 1) with
    | Some pred -> pred.status = Committed
    | None -> false

(* Receive on a channel: Ready payload / Not_yet wake / Nothing. *)
type recv = Ready of payload | Not_yet of int | Nothing

let receive sim st e ch =
  match Hashtbl.find_opt e.consumed ch with
  | Some p -> Ready p
  | None -> begin
    match sent_of_predecessor st e ch with
    | Some { se_payload; se_avail } ->
      if se_avail <= sim.cycle then begin
        Hashtbl.replace e.consumed ch se_payload;
        Ready se_payload
      end
      else Not_yet se_avail
    | None ->
      if predecessor_finished st e then
        raise
          (Deadlock
             (Printf.sprintf
                "epoch %d waits on channel %d its committed predecessor never signaled"
                e.ep_index ch))
      else Nothing
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
      match Hashtbl.find_opt e.occ iid with Some n -> n | None -> 0
    in
    Hashtbl.replace e.occ iid (occurrence + 1);
    Oracle.value oracle ~region:st.ts_region.Ir.Region.id
      ~instance:st.ts_instance ~iteration:(e.ep_index + 1) ~iid ~occurrence

(* Finite speculative-state tracking (DESIGN §12): every line an epoch
   reads or writes speculatively occupies L1 space.  Crossing
   [spec_lines_per_epoch] on a non-oldest epoch triggers the overflow
   policy; the oldest epoch is exempt — it is homefree and can always
   drain, which guarantees forward progress.  Policy actions are deferred
   to [graduate]: hooks must never squash mid-instruction. *)
let note_spec_line sim st e key =
  if not (Hashtbl.mem e.spec_lines key) then begin
    Hashtbl.replace e.spec_lines key ();
    let occ = Hashtbl.length e.spec_lines in
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

(* Plain speculative load: own writes overlay committed memory; exposed
   reads mark the line in the speculative-load set. *)
let speculative_load sim st e iid addr =
  let proc = epoch_proc sim e in
  sim.extra_latency <- Memsys.access sim.memsys ~proc ~addr - 1;
  match Hashtbl.find_opt e.spec_writes addr with
  | Some v -> v
  | None ->
    let key = track_key sim addr in
    if not (Hashtbl.mem e.read_lines key) then
      Hashtbl.replace e.read_lines key iid;
    note_spec_line sim st e key;
    Runtime.Memory.load sim.committed addr

let epoch_load sim st e (i : Ir.Instr.t) addr =
  let iid = i.Ir.Instr.iid in
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
    (* The epoch's own earlier store always supplies the value; prediction
       only applies to exposed loads. *)
    && not (Hashtbl.mem e.spec_writes addr)
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

let epoch_store sim st e (i : Ir.Instr.t) addr v =
  let proc = epoch_proc sim e in
  sim.extra_latency <- Memsys.access sim.memsys ~proc ~addr - 1;
  Hashtbl.replace e.spec_writes addr v;
  let line = track_key sim addr in
  Hashtbl.replace e.write_lines line ();
  note_spec_line sim st e line;
  (* Store-time violation: younger epochs that speculatively read the line. *)
  let rec check k =
    if k < st.ts_next_spawn then begin
      match Hashtbl.find_opt st.epochs k with
      | Some e' when e'.status = Running || e'.status = Done -> begin
        match Hashtbl.find_opt e'.read_lines line with
        | Some reader_iid ->
          violate sim st ~victim_idx:k ~load_iid:reader_iid
          (* cascade squashed everything younger; stop *)
        | None -> check (k + 1)
      end
      | _ -> check (k + 1)
    end
  in
  check (e.ep_index + 1);
  ignore i;
  (* Producer-side signal address buffer: storing to an address already
     forwarded means the wrong value was sent. *)
  Hashtbl.iter
    (fun ch signaled_addr ->
      if signaled_addr = addr then begin
        Hashtbl.replace e.sent ch
          {
            se_payload = P_mem (addr, v);
            se_avail = sim.cycle + sim.cfg.Config.forward_latency;
          };
        match Hashtbl.find_opt st.epochs (e.ep_index + 1) with
        | Some succ
          when (succ.status = Running || succ.status = Done)
               && Hashtbl.mem succ.consumed ch ->
          violate sim st ~victim_idx:succ.ep_index
            ~load_iid:
              (match Int_set.choose_opt st.ts_comp_loads with
              | Some iid -> iid
              | None -> -1)
        | _ -> ()
      end)
    e.sig_buffer

(* The value an epoch may legitimately forward for [addr]: its own
   speculative write, or the value it received on the same channel
   (pass-through — still sequentially correct for the successor).  The
   committed value may be stale while older epochs are in flight, so when
   neither source applies the signal degrades to NULL and the consumer
   falls back to (violation-protected) speculation, exactly as the paper's
   NULL signals do. *)
let forwardable_value sim e ch addr =
  ignore sim;
  match Hashtbl.find_opt e.spec_writes addr with
  | Some v -> Some v
  | None -> begin
    match Hashtbl.find_opt e.consumed ch with
    | Some (P_mem (a, v)) when a = addr -> Some v
    | Some _ | None -> None
  end

(* Occupancy of the forwarding queue between [e] and its successor:
   signals posted but not yet consumed (DESIGN §12).  In-place updates of
   a channel already in [sent] never grow the queue; with no live
   successor the interconnect drains into the void (nothing can ever
   consume), so the final epoch of a region is never backpressured. *)
let fwd_queue_occupancy st e =
  match Hashtbl.find_opt st.epochs (e.ep_index + 1) with
  | Some succ when succ.status = Running || succ.status = Done ->
    Hashtbl.fold
      (fun ch _ n -> if Hashtbl.mem succ.consumed ch then n else n + 1)
      e.sent 0
  | _ -> 0

let note_fwd_peak sim st e =
  let occ = fwd_queue_occupancy st e in
  let rs = sim.resources in
  if occ > rs.Simstats.rs_peak_fwd_queue then rs.Simstats.rs_peak_fwd_queue <- occ

let epoch_signal_mem sim st e ch addr =
  if sim.cfg.Config.stall_compiler_sync then begin
    let addr, value =
      if addr = 0 then (0, 0)
      else
        match forwardable_value sim e ch addr with
        | Some v -> (addr, v)
        | None -> (0, 0)
    in
    (* Chaos faults keyed on the dynamic memory-signal counter: corrupt
       the forwarded address (consumers fail the address check and fall
       back to protected speculation), detect a corrupt value before the
       address check (payload degrades to NULL), or delay delivery. *)
    let n = sim.f_mem_signals in
    sim.f_mem_signals <- n + 1;
    let addr, value, extra_delay =
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
        (addr, value, 0) sim.cfg.Config.sim_faults
    in
    (* Finite signal address buffer (DESIGN §12): a full buffer cannot
       track a new forwarded address, so the signal degrades to NULL —
       the consumer unblocks without a value and falls back to a
       violation-protected speculative load (absorbable, like
       [Corrupt_value]).  Re-signaling a channel already in the buffer
       replaces its entry and never needs a new slot. *)
    let addr, value =
      if
        addr <> 0
        && (not (Hashtbl.mem e.sig_buffer ch))
        && Hashtbl.length e.sig_buffer >= sim.cfg.Config.sig_buffer_entries
      then begin
        sim.resources.Simstats.rs_sig_drops <-
          sim.resources.Simstats.rs_sig_drops + 1;
        (0, 0)
      end
      else (addr, value)
    in
    let had_previous = Hashtbl.mem e.sent ch in
    Hashtbl.replace e.sent ch
      {
        se_payload = P_mem (addr, value);
        se_avail = sim.cycle + sim.cfg.Config.forward_latency + extra_delay;
      };
    note_fwd_peak sim st e;
    if addr <> 0 then begin
      Hashtbl.replace e.sig_buffer ch addr;
      sim.max_sig_buffer <-
        max sim.max_sig_buffer (Hashtbl.length e.sig_buffer)
    end;
    if had_previous then begin
      (* A second signal on the channel: if the consumer already used the
         first value, it used the wrong one. *)
      match Hashtbl.find_opt st.epochs (e.ep_index + 1) with
      | Some succ
        when (succ.status = Running || succ.status = Done)
             && Hashtbl.mem succ.consumed ch ->
        violate sim st ~victim_idx:succ.ep_index
          ~load_iid:
            (match Int_set.choose_opt st.ts_comp_loads with
            | Some iid -> iid
            | None -> -1)
      | _ -> ()
    end
  end

(* Has this channel's forwarding proven useless (rarely matching)?  When
   the filter is on, consumers stop stalling on such channels and fall
   back to plain speculation (paper §4.2 (iv)). *)
let channel_filtered sim ch =
  sim.cfg.Config.filter_useless_sync
  &&
  match Hashtbl.find_opt sim.chan_stats ch with
  | Some (matched, seen) ->
    seen >= sim.cfg.Config.filter_window && matched * 4 < seen
  | None -> false

let note_channel_outcome sim ch ~matched =
  let m, s =
    match Hashtbl.find_opt sim.chan_stats ch with
    | Some (m, s) -> (m, s)
    | None -> (0, 0)
  in
  Hashtbl.replace sim.chan_stats ch ((m + if matched then 1 else 0), s + 1)

(* ------------------------------------------------------------------ *)
(* Epoch hooks                                                         *)
(* ------------------------------------------------------------------ *)

let epoch_hooks sim st e : Runtime.Thread.hooks =
  let my_channel ch = Int_set.mem ch st.ts_channels in
  {
    Runtime.Thread.load = (fun _ i addr -> epoch_load sim st e i addr);
    store = (fun _ i addr v -> epoch_store sim st e i addr v);
    wait_scalar =
      (fun t i ch ->
        if not (my_channel ch) then begin
          (* A nested region's synchronization, executed sequentially. *)
          match i.Ir.Instr.kind with
          | Ir.Instr.Wait_scalar (_, dst) ->
            Some (Runtime.Thread.current_frame t).Runtime.Thread.regs.(dst)
          | _ -> None
        end
        else begin
          match receive sim st e ch with
          | Ready (P_scalar v) -> Some v
          | Ready (P_mem (_, v)) -> Some v
          | Not_yet avail ->
            e.blocked <- true;
            e.wake_at <- avail;
            e.last_block <- Some ch;
            None
          | Nothing ->
            e.blocked <- true;
            e.wake_at <- max_int;
            e.last_block <- Some ch;
            None
        end)
    ;
    signal_scalar =
      (fun _ _ ch v ->
        if my_channel ch then begin
          Hashtbl.replace e.sent ch
            {
              se_payload = P_scalar v;
              se_avail = sim.cycle + sim.cfg.Config.forward_latency;
            };
          note_fwd_peak sim st e
        end);
    wait_mem =
      (fun _ _ ch ->
        if not (my_channel ch) then true
        else if not sim.cfg.Config.stall_compiler_sync then true
        else if Hashtbl.mem sim.dropped_wakeups (e.ep_index, ch) then begin
          (* Drop_wakeup fault: the signal may have arrived, but this
             epoch's wake-up was lost; it must stay blocked so the
             watchdog (not the cycle budget) ends the run. *)
          e.blocked <- true;
          e.wake_at <- max_int;
          e.last_block <- Some ch;
          false
        end
        else if channel_filtered sim ch then true
        else begin
          match sim.cfg.Config.forward_timing with
          | Config.Forward_perfect -> true
          | Config.Forward_at_commit ->
            if is_oldest st e then true
            else begin
              e.blocked <- true;
              e.wake_at <- max_int;
              e.last_block <- Some ch;
              false
            end
          | Config.Forward_normal -> begin
            match receive sim st e ch with
            | Ready _ -> true
            | Not_yet avail ->
              e.blocked <- true;
              e.wake_at <- avail;
              e.last_block <- Some ch;
              note_blocked_wait sim e ch;
              false
            | Nothing ->
              e.blocked <- true;
              e.wake_at <- max_int;
              e.last_block <- Some ch;
              note_blocked_wait sim e ch;
              false
          end
        end)
    ;
    sync_load =
      (fun _ i ch addr ->
        let iid = i.Ir.Instr.iid in
        if not (my_channel ch) then speculative_load sim st e iid addr
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
          | Config.Forward_at_commit ->
            (* We are the oldest epoch here (the wait stalled us). *)
            speculative_load sim st e iid addr
          | Config.Forward_normal -> begin
            if channel_filtered sim ch then speculative_load sim st e iid addr
            else
              match Hashtbl.find_opt e.consumed ch with
              | Some (P_mem (a, v)) when a <> 0 && a = addr ->
                note_channel_outcome sim ch ~matched:true;
                if Hashtbl.mem e.spec_writes addr then begin
                  (* Locally overwritten: use the local value. *)
                  sim.extra_latency <- 0;
                  Hashtbl.find e.spec_writes addr
                end
                else begin
                  (* The forwarded value satisfies the load point-to-point:
                     no speculative-load mark, no violation possible. *)
                  sim.extra_latency <- 0;
                  v
                end
              | Some _ ->
                (* NULL signal or non-matching address: violation-protected
                   fallback, exactly as the paper's NULL signals. *)
                note_channel_outcome sim ch ~matched:false;
                speculative_load sim st e iid addr
              | None ->
                (* Nothing was ever received on this channel, so no
                   Wait_mem dominated this load — the compiler's sync
                   protocol is broken (e.g. a dropped wait).  Filtering
                   legitimately elides waits, so the check only applies
                   when it is off. *)
                if not sim.cfg.Config.filter_useless_sync then
                  raise
                    (Stuck
                       (stuck_diag_of sim st (Missing_wait { channel = ch; iid })))
                else begin
                  note_channel_outcome sim ch ~matched:false;
                  speculative_load sim st e iid addr
                end
          end
        end)
    ;
    signal_mem = (fun _ _ ch addr -> if my_channel ch then epoch_signal_mem sim st e ch addr);
    signal_mem_if_unsent =
      (fun _ _ ch addr ->
        if
          my_channel ch
          && sim.cfg.Config.stall_compiler_sync
          && not (Hashtbl.mem e.sent ch)
        then epoch_signal_mem sim st e ch addr);
    signal_null =
      (fun _ _ ch ->
        if my_channel ch && sim.cfg.Config.stall_compiler_sync then begin
          Hashtbl.replace e.sent ch
            {
              se_payload = P_mem (0, 0);
              se_avail = sim.cycle + sim.cfg.Config.forward_latency;
            };
          note_fwd_peak sim st e
        end);
    signal_null_if_unsent =
      (fun _ _ ch ->
        if
          my_channel ch
          && sim.cfg.Config.stall_compiler_sync
          && not (Hashtbl.mem e.sent ch)
        then begin
          Hashtbl.replace e.sent ch
            {
              se_payload = P_mem (0, 0);
              se_avail = sim.cycle + sim.cfg.Config.forward_latency;
            };
          note_fwd_peak sim st e
        end);
    control =
      (fun t ~target ->
        if Runtime.Thread.depth t > 1 then true
        else if target = st.ts_region.Ir.Region.header then begin
          e.exitk <- Some Exit_back;
          false
        end
        else if not (Int_set.mem target st.ts_blocks) then begin
          e.exitk <- Some (Exit_out target);
          false
        end
        else true);
  }

(* ------------------------------------------------------------------ *)
(* Graduation                                                          *)
(* ------------------------------------------------------------------ *)

(* Does the hardware-synchronization table force the next instruction of
   this epoch to stall?  Under the coordinated hybrid the hardware trusts
   compiler-synchronized loads and leaves them alone (paper §4.2 (iii)). *)
let hw_stall_next sim st e =
  sim.cfg.Config.hw_sync_stall
  && (not (is_oldest st e))
  &&
  match Runtime.Thread.next_instr e.ep_thread with
  | Some { Ir.Instr.kind = Ir.Instr.Load _ | Ir.Instr.Sync_load _; iid; _ } ->
    Hwsync.marked sim.hwsync iid
    && not
         (sim.cfg.Config.hw_skip_compiler_synced
         && Int_set.mem iid st.ts_comp_loads)
  | Some _ | None -> false

(* Would the next instruction of [e] post a signal on a fresh channel of
   this region?  Used by forwarding-queue backpressure: only signals that
   need a new queue entry can be stalled — updates in place (the channel
   is already in [sent]) and nested-region or unhonored signals pass
   freely. *)
let next_signal_channel sim st e =
  if sim.cfg.Config.fwd_queue_depth = max_int then None
  else
    match Runtime.Thread.next_instr e.ep_thread with
    | Some { Ir.Instr.kind; _ } -> begin
      let mem_sync = sim.cfg.Config.stall_compiler_sync in
      let candidate =
        match kind with
        | Ir.Instr.Signal_scalar (ch, _) -> Some ch
        | Ir.Instr.Signal_mem (ch, _) when mem_sync -> Some ch
        | Ir.Instr.Signal_mem_if_unsent (ch, _) when mem_sync -> Some ch
        | Ir.Instr.Signal_null ch when mem_sync -> Some ch
        | Ir.Instr.Signal_null_if_unsent ch when mem_sync -> Some ch
        | _ -> None
      in
      match candidate with
      | Some ch
        when Int_set.mem ch st.ts_channels && not (Hashtbl.mem e.sent ch) ->
        Some ch
      | _ -> None
    end
    | None -> None


let graduate sim st e =
  let width = sim.cfg.Config.issue_width in
  let slots = ref width in
  let continue_ = ref true in
  e.blocked <- false;
  while !slots > 0 && !continue_ do
    if e.status <> Running then continue_ := false
    else if e.stall_until > sim.cycle then begin
      e.a_other <- e.a_other + !slots;
      slots := 0
    end
    else if e.hold_until_oldest && not (is_oldest st e) then begin
      e.blocked <- true;
      e.wake_at <- max_int;
      e.last_block <- None;
      e.a_other <- e.a_other + !slots;
      slots := 0
    end
    else if e.overflow_hold && not (is_oldest st e) then begin
      (* Speculative-state overflow under Overflow_stall: parked until
         oldest, when the footprint may drain non-speculatively. *)
      e.blocked <- true;
      e.wake_at <- max_int;
      e.last_block <- None;
      e.a_other <- e.a_other + !slots;
      slots := 0
    end
    else if hw_stall_next sim st e then begin
      e.blocked <- true;
      e.wake_at <- max_int;
      (* Hardware-sync stall: no compiler channel to attribute to. *)
      e.last_block <- None;
      e.a_sync <- e.a_sync + !slots;
      slots := 0
    end
    else if
      match next_signal_channel sim st e with
      | Some _ ->
        fwd_queue_occupancy st e >= sim.cfg.Config.fwd_queue_depth
      | None -> false
    then begin
      (* Forwarding-queue backpressure: the interconnect cannot accept a
         new signal until the successor consumes.  If the whole region
         wedges in this state, the watchdog refines Stuck into the typed
         Resource_deadlock (see tls_cycle). *)
      let ch =
        match next_signal_channel sim st e with Some c -> c | None -> -1
      in
      let rs = sim.resources in
      if e.bp_channel = None then
        rs.Simstats.rs_bp_signals <- rs.Simstats.rs_bp_signals + 1;
      rs.Simstats.rs_bp_slots <- rs.Simstats.rs_bp_slots + !slots;
      e.bp_channel <- Some ch;
      e.blocked <- true;
      e.wake_at <- max_int;
      e.last_block <- Some ch;
      e.a_sync <- e.a_sync + !slots;
      add_sync_chan e (Some ch) !slots;
      slots := 0
    end
    else begin
      e.bp_channel <- None;
      sim.extra_latency <- 0;
      let hooks =
        match e.hooks with
        | Some h -> h
        | None ->
          let h = epoch_hooks sim st e in
          e.hooks <- Some h;
          h
      in
      match Runtime.Thread.step e.ep_thread hooks with
      | Runtime.Thread.Ran ev ->
        sim.last_progress <- sim.cycle;
        e.a_busy <- e.a_busy + 1;
        decr slots;
        e.attempt_instrs <- e.attempt_instrs + 1;
        (* Fixed-latency functional units. *)
        let unit_latency =
          match ev with
          | Runtime.Thread.Exec
              { Ir.Instr.kind = Ir.Instr.Bin (Ir.Instr.Mul, _, _, _); _ } ->
            sim.cfg.Config.lat_mul - 1
          | Runtime.Thread.Exec
              {
                Ir.Instr.kind =
                  Ir.Instr.Bin ((Ir.Instr.Div | Ir.Instr.Rem), _, _, _);
                _;
              } ->
            sim.cfg.Config.lat_div - 1
          | _ -> 0
        in
        let extra = max sim.extra_latency unit_latency in
        if extra > 0 then e.stall_until <- sim.cycle + extra;
        if e.status = Running && e.overflow_squash_pending then begin
          (* Speculative-state overflow under Overflow_squash: discard
             the oversized footprint and re-run once oldest.  The squash
             must cascade: younger epochs may have consumed values this
             epoch forwarded from its (pre-commit) speculative state, and
             the re-run as oldest can legitimately produce different
             ones. *)
          cascade_squash sim st e.ep_index;
          e.hold_until_oldest <- true;
          continue_ := false
        end
        else if
          e.status = Running && e.attempt_instrs > sim.cfg.Config.epoch_max_instrs
        then begin
          if is_oldest st e then
            (* A wrong value prediction can send even the oldest epoch down
               a runaway path; restarting it is safe (it re-runs with real
               loads).  Without an outstanding prediction a runaway oldest
               epoch is a genuine non-terminating program. *)
            if List.exists (fun (_, _, _, p) -> p) e.pending_preds then begin
              sim.violations <- sim.violations + 1;
              cascade_squash sim st e.ep_index;
              continue_ := false
            end
            else failwith "Sim: oldest epoch exceeded the instruction cap"
          else begin
            squash sim st e;
            e.hold_until_oldest <- true;
            continue_ := false
          end
        end
      | Runtime.Thread.Blocked ->
        e.a_sync <- e.a_sync + !slots;
        add_sync_chan e e.last_block !slots;
        slots := 0
      | Runtime.Thread.Suspended ->
        e.status <- Done;
        continue_ := false
      | Runtime.Thread.Finished rv ->
        e.exitk <- Some (Exit_return rv);
        e.status <- Done;
        continue_ := false
    end
  done

(* ------------------------------------------------------------------ *)
(* Commit                                                              *)
(* ------------------------------------------------------------------ *)

(* Predicted loads were exposed (no own store preceded them), so the value
   each should have seen is exactly committed memory at commit time — all
   older epochs have merged, none of the epoch's own writes affect it. *)
let verify_predictions sim e =
  List.for_all
    (fun (_, addr, used, was_predicted) ->
      (not was_predicted) || Runtime.Memory.load sim.committed addr = used)
    e.pending_preds

let train_predictions sim e =
  List.iter
    (fun (iid, addr, _, _) ->
      Vpred.train sim.vpred iid
        ~actual:(Runtime.Memory.load sim.committed addr))
    e.pending_preds

let accumulate_attempt sim e =
  sim.slots.Simstats.s_busy <- sim.slots.Simstats.s_busy + e.a_busy;
  sim.slots.Simstats.s_sync <- sim.slots.Simstats.s_sync + e.a_sync;
  sim.slots.Simstats.s_other_stall <-
    sim.slots.Simstats.s_other_stall + e.a_other;
  Hashtbl.iter
    (fun ch n ->
      Hashtbl.replace sim.sync_by_channel ch
        (n + Option.value ~default:0 (Hashtbl.find_opt sim.sync_by_channel ch)))
    e.a_sync_chan

(* Spurious_violation fault targeting the next commit, if one is armed and
   unfired.  Keyed on the global commit counter, which does not advance on
   a squash, so the single-shot guard is what stops it refiring. *)
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
    match Hashtbl.find_opt st.epochs st.ts_oldest with
    | Some e when e.status = Done ->
      if spurious_violation_fires sim then begin
        (* The hardware squashed a correct epoch: re-running it must be
           idempotent, so this is absorbable by construction. *)
        sim.violations <- sim.violations + 1;
        cascade_squash sim st e.ep_index
      end
      else if
        sim.cfg.Config.hw_value_predict
        && not (verify_predictions sim e)
      then begin
        (* Value misprediction: restart this epoch (it re-runs as oldest). *)
        sim.violations <- sim.violations + 1;
        train_predictions sim e;
        cascade_squash sim st e.ep_index
      end
      else begin
        if sim.cfg.Config.hw_value_predict then train_predictions sim e;
        (* Commit-time violations: uncommitted-store-then-load staleness. *)
        Hashtbl.iter
          (fun line () ->
            let rec check k =
              if k < st.ts_next_spawn then begin
                match Hashtbl.find_opt st.epochs k with
                | Some e' when e'.status = Running || e'.status = Done -> begin
                  match Hashtbl.find_opt e'.read_lines line with
                  | Some reader_iid ->
                    violate sim st ~victim_idx:k ~load_iid:reader_iid
                  | None -> check (k + 1)
                end
                | _ -> check (k + 1)
              end
            in
            check (e.ep_index + 1))
          e.write_lines;
        (* Merge the speculative writes into committed memory. *)
        Hashtbl.iter
          (fun addr v -> Runtime.Memory.store sim.committed addr v)
          e.spec_writes;
        drain_thread_output sim e.ep_thread;
        accumulate_attempt sim e;
        e.status <- Committed;
        sim.last_progress <- sim.cycle;
        sim.committed_epochs <- sim.committed_epochs + 1;
        st.ts_commit_ready <- sim.cycle + sim.cfg.Config.commit_overhead;
        match e.exitk with
        | Some Exit_back -> st.ts_oldest <- st.ts_oldest + 1
        | Some (Exit_out _ | Exit_return _) ->
          st.ts_ended <- true;
          st.ts_winner <- Some e
        | None -> assert false
      end
    | Some _ | None -> ()
  end

let spawn_epochs sim st =
  let speculative_exit_pending =
    List.exists
      (fun e -> e.status = Done && e.exitk <> Some Exit_back)
      (active_epochs st)
  in
  if not speculative_exit_pending then
    while
      st.ts_next_spawn < st.ts_oldest + sim.cfg.Config.num_procs
      && not st.ts_ended
    do
      let idx = st.ts_next_spawn in
      Hashtbl.replace st.epochs idx (fresh_epoch sim st idx);
      st.ts_next_spawn <- idx + 1
    done

(* ------------------------------------------------------------------ *)
(* TLS cycle                                                           *)
(* ------------------------------------------------------------------ *)

let procs_slots sim = sim.cfg.Config.num_procs * sim.cfg.Config.issue_width

(* Fast-forward when every epoch is stalled with a known wake time. *)
let fast_forward sim st =
  let actives = active_epochs st in
  let can_act_now =
    List.exists
      (fun e ->
        e.status = Running && e.stall_until <= sim.cycle
        && not (e.blocked && e.wake_at > sim.cycle))
      actives
    ||
    (* a commit is possible *)
    (match Hashtbl.find_opt st.epochs st.ts_oldest with
    | Some e -> e.status = Done && sim.cycle >= st.ts_commit_ready
    | None -> false)
  in
  if can_act_now then ()
  else begin
    let next =
      List.fold_left
        (fun acc e ->
          let t =
            if e.status <> Running then max_int
            else if e.stall_until > sim.cycle then e.stall_until
            else if e.blocked then e.wake_at
            else max_int
          in
          min acc t)
        max_int actives
    in
    let next =
      match Hashtbl.find_opt st.epochs st.ts_oldest with
      | Some e when e.status = Done -> min next st.ts_commit_ready
      | _ -> next
    in
    if next = max_int || next <= sim.cycle then ()
      (* cannot prove a skip; fall through to normal polling *)
    else begin
      let skip = next - sim.cycle in
      let w = sim.cfg.Config.issue_width in
      List.iter
        (fun e ->
          if e.status = Running then
            if e.blocked then begin
              e.a_sync <- e.a_sync + (skip * w);
              add_sync_chan e e.last_block (skip * w)
            end
            else e.a_other <- e.a_other + (skip * w))
        actives;
      sim.slots.Simstats.s_total <-
        sim.slots.Simstats.s_total + (skip * procs_slots sim);
      sim.region_wall <- sim.region_wall + skip;
      sim.cycle <- sim.cycle + skip
    end
  end

let tls_cycle sim st =
  (* Progress watchdog: if no instruction graduated and no epoch committed
     for a whole window, the region is wedged (dropped signal, lost
     wake-up, ...) — raise a typed diagnostic instead of spinning to the
     cycle budget.  Legitimate stalls (cache misses, forwarding latency,
     staggered restarts) are orders of magnitude shorter than the window. *)
  if sim.cycle - sim.last_progress > sim.cfg.Config.watchdog_window then begin
    (* Backpressure refinement: a producer stalled on a full forwarding
       queue when the watchdog expires means the consumer side can never
       drain it — a resource deadlock, typed as such.  Anything else
       stays Stuck.  Detection latency is bounded by the window, so
       "never a hang" holds either way. *)
    (match
       List.find_opt (fun e -> e.bp_channel <> None) (active_epochs st)
     with
    | Some e ->
      raise
        (Resource_deadlock
           {
             rd_cycle = sim.cycle;
             rd_region = st.ts_region.Ir.Region.id;
             rd_func = st.ts_region.Ir.Region.func;
             rd_producer = e.ep_index;
             rd_channel =
               (match e.bp_channel with Some c -> c | None -> -1);
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
  let rec step_epochs k =
    if k < st.ts_next_spawn && not st.ts_ended then begin
      (match Hashtbl.find_opt st.epochs k with
      | Some e when e.status = Running -> graduate sim st e
      | _ -> ());
      step_epochs (k + 1)
    end
  in
  step_epochs st.ts_oldest;
  if not st.ts_ended then try_commit sim st;
  if not st.ts_ended then spawn_epochs sim st;
  sim.cycle <- sim.cycle + 1

(* Finish a region instance: discard wrong-path epochs and resume the
   sequential thread from the winning epoch. *)
let finish_instance sim st =
  let winner =
    match st.ts_winner with
    | Some e -> e
    | None -> failwith "Sim.finish_instance: no winner"
  in
  Hashtbl.iter
    (fun _ e ->
      match e.status with
      | Running | Done ->
        sim.squashed_epochs <- sim.squashed_epochs + 1;
        sim.slots.Simstats.s_fail <-
          sim.slots.Simstats.s_fail + e.a_busy + e.a_sync + e.a_other;
        e.status <- Discarded
      | Committed | Discarded -> ())
    st.epochs;
  let prev =
    match Hashtbl.find_opt sim.region_wall_by_id st.ts_region.Ir.Region.id with
    | Some c -> c
    | None -> 0
  in
  Hashtbl.replace sim.region_wall_by_id st.ts_region.Ir.Region.id
    (prev + (sim.cycle - st.ts_start_cycle));
  (* Resume sequential execution. *)
  (match winner.exitk with
  | Some (Exit_out target) ->
    let seq_frame = Runtime.Thread.current_frame sim.seq_thread in
    let ep_frame = Runtime.Thread.current_frame winner.ep_thread in
    Array.blit ep_frame.Runtime.Thread.regs 0 seq_frame.Runtime.Thread.regs 0
      (Array.length seq_frame.Runtime.Thread.regs);
    seq_frame.Runtime.Thread.block <- target;
    seq_frame.Runtime.Thread.pc <- 0
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

let seq_hooks sim : Runtime.Thread.hooks =
  let base = Runtime.Thread.sequential_hooks sim.committed in
  {
    base with
    Runtime.Thread.load =
      (fun _ _ addr ->
        sim.extra_latency <- Memsys.access sim.memsys ~proc:0 ~addr - 1;
        Runtime.Memory.load sim.committed addr);
    store =
      (fun _ _ addr v ->
        sim.extra_latency <- Memsys.access sim.memsys ~proc:0 ~addr - 1;
        Runtime.Memory.store sim.committed addr v);
    control =
      (fun t ~target ->
        let fname =
          (Runtime.Thread.current_frame t).Runtime.Thread.cfunc
            .Runtime.Code.cf_name
        in
        match Hashtbl.find_opt sim.regions_by_func fname with
        | Some regions -> begin
          match
            List.find_opt (fun (r : Ir.Region.t) -> r.Ir.Region.header = target) regions
          with
          | Some r ->
            sim.pending_region <- Some r;
            false
          | None -> true
        end
        | None -> true);
  }

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
  base.Runtime.Thread.pc <- 0;
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
  let st =
    {
      ts_region = r;
      ts_instance = instance;
      ts_base = base;
      ts_blocks = Int_set.of_list r.Ir.Region.blocks;
      ts_channels = channels;
      ts_comp_loads = comp_loads;
      ts_entry_sent = entry_sent;
      epochs = Hashtbl.create 16;
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

let seq_cycle sim hooks =
  if sim.seq_stall_until > sim.cycle then begin
    let skip = sim.seq_stall_until - sim.cycle in
    sim.cycle <- sim.cycle + skip;
    sim.seq_cycles <- sim.seq_cycles + skip
  end;
  let slots = ref sim.cfg.Config.issue_width in
  let continue_ = ref true in
  while !slots > 0 && !continue_ && not sim.finished do
    sim.extra_latency <- 0;
    match Runtime.Thread.step sim.seq_thread hooks with
    | Runtime.Thread.Ran ev ->
      decr slots;
      let unit_latency =
        match ev with
        | Runtime.Thread.Exec
            { Ir.Instr.kind = Ir.Instr.Bin (Ir.Instr.Mul, _, _, _); _ } ->
          sim.cfg.Config.lat_mul - 1
        | Runtime.Thread.Exec
            {
              Ir.Instr.kind =
                Ir.Instr.Bin ((Ir.Instr.Div | Ir.Instr.Rem), _, _, _);
              _;
            } ->
          sim.cfg.Config.lat_div - 1
        | _ -> 0
      in
      let extra = max sim.extra_latency unit_latency in
      if extra > 0 then begin
        sim.seq_stall_until <- sim.cycle + extra;
        continue_ := false
      end
    | Runtime.Thread.Suspended -> begin
      match sim.pending_region with
      | Some r ->
        sim.pending_region <- None;
        enter_tls sim r;
        continue_ := false
      | None -> failwith "Sim: sequential thread suspended without a region"
    end
    | Runtime.Thread.Blocked -> failwith "Sim: sequential thread blocked"
    | Runtime.Thread.Finished _ -> sim.finished <- true
  done;
  sim.cycle <- sim.cycle + 1;
  sim.seq_cycles <- sim.seq_cycles + 1

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let create_sim cfg code ~input ~oracle ~tls_enabled =
  let committed = Runtime.Memory.create () in
  Runtime.Memory.store_all committed code.Runtime.Code.initial_stores;
  let regions_by_func = Hashtbl.create 8 in
  if tls_enabled then
    List.iter
      (fun (r : Ir.Region.t) ->
        let prev =
          match Hashtbl.find_opt regions_by_func r.Ir.Region.func with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace regions_by_func r.Ir.Region.func (r :: prev))
      code.Runtime.Code.regions;
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
  }

let run cfg code ~input ?oracle () =
  let max_cycles = cfg.Config.max_cycles in
  let result, runtime = Simstats.with_runtime_counters @@ fun () ->
  let sim = create_sim cfg code ~input ~oracle ~tls_enabled:true in
  let hooks = seq_hooks sim in
  while not sim.finished do
    if sim.cycle > max_cycles then
      raise
        (Cycle_limit { max_cycles; cycle = sim.cycle; where = "Sim.run" });
    match sim.mode with
    | Seq -> seq_cycle sim hooks
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

(* ------------------------------------------------------------------ *)
(* Sequential timed run with loop-extent tracking                      *)
(* ------------------------------------------------------------------ *)

type extent_active = { ea_region : int; ea_body : Int_set.t }

type extent_state = {
  ex_by_func : (string, (int * int * Int_set.t) list) Hashtbl.t;
  mutable ex_stack : extent_active list list;   (* parallel to frames *)
}

let extent_current st =
  let rec scan = function
    | [] -> None
    | actives :: rest -> begin
      match actives with
      | a :: _ -> Some a.ea_region
      | [] -> scan rest
    end
  in
  (* Outermost attribution: find the deepest list entry (bottom frame) that
     has an active region.  ex_stack is innermost-first, so scan reversed. *)
  scan (List.rev st.ex_stack)

let extent_goto st fname target =
  match st.ex_stack with
  | [] -> ()
  | actives :: rest ->
    let still =
      List.filter (fun a -> Int_set.mem target a.ea_body) actives
    in
    let actives =
      match Hashtbl.find_opt st.ex_by_func fname with
      | Some regions -> begin
        match
          List.find_opt (fun (_, header, _) -> header = target) regions
        with
        | Some (rid, _, body)
          when not
                 (List.exists
                    (fun a -> a.ea_region = rid)
                    still) ->
          { ea_region = rid; ea_body = body } :: still
        | Some _ | None -> still
      end
      | None -> still
    in
    st.ex_stack <- actives :: rest

let run_sequential cfg code ~input ~track =
  let max_cycles = cfg.Config.max_cycles in
  let result, runtime = Simstats.with_runtime_counters @@ fun () ->
  let sim = create_sim cfg code ~input ~oracle:None ~tls_enabled:false in
  let ex_by_func = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.Region.t) ->
      let prev =
        match Hashtbl.find_opt ex_by_func r.Ir.Region.func with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace ex_by_func r.Ir.Region.func
        ((r.Ir.Region.id, r.Ir.Region.header, Int_set.of_list r.Ir.Region.blocks)
        :: prev))
    track;
  let ex = { ex_by_func; ex_stack = [ [] ] } in
  let region_cycles = Hashtbl.create 8 in
  let base = seq_hooks sim in
  let hooks = { base with Runtime.Thread.control = (fun _ ~target:_ -> true) } in
  let attribute cycles =
    match extent_current ex with
    | Some rid ->
      let prev =
        match Hashtbl.find_opt region_cycles rid with
        | Some c -> c
        | None -> 0
      in
      Hashtbl.replace region_cycles rid (prev + cycles)
    | None -> ()
  in
  while not sim.finished do
    if sim.cycle > max_cycles then
      raise
        (Cycle_limit
           { max_cycles; cycle = sim.cycle; where = "Sim.run_sequential" });
    (* One cycle: up to issue_width graduations, tracking extents. *)
    if sim.seq_stall_until > sim.cycle then begin
      let skip = sim.seq_stall_until - sim.cycle in
      attribute skip;
      sim.cycle <- sim.cycle + skip
    end;
    let slots = ref sim.cfg.Config.issue_width in
    let continue_ = ref true in
    while !slots > 0 && !continue_ && not sim.finished do
      sim.extra_latency <- 0;
      match Runtime.Thread.step sim.seq_thread hooks with
      | Runtime.Thread.Ran ev ->
        decr slots;
        (match ev with
        | Runtime.Thread.Exec { Ir.Instr.kind = Ir.Instr.Call _; _ } ->
          ex.ex_stack <- [] :: ex.ex_stack
        | Runtime.Thread.Exec
            { Ir.Instr.kind = Ir.Instr.Bin (Ir.Instr.Mul, _, _, _); _ } ->
          sim.extra_latency <- max sim.extra_latency (cfg.Config.lat_mul - 1)
        | Runtime.Thread.Exec
            {
              Ir.Instr.kind =
                Ir.Instr.Bin ((Ir.Instr.Div | Ir.Instr.Rem), _, _, _);
              _;
            } ->
          sim.extra_latency <- max sim.extra_latency (cfg.Config.lat_div - 1)
        | Runtime.Thread.Goto (fname, _from, target) ->
          extent_goto ex fname target
        | Runtime.Thread.Return (_, _) -> begin
          match ex.ex_stack with
          | _ :: rest -> ex.ex_stack <- rest
          | [] -> ()
        end
        | Runtime.Thread.Exec _ -> ());
        if sim.extra_latency > 0 then begin
          sim.seq_stall_until <- sim.cycle + sim.extra_latency;
          continue_ := false
        end
      | Runtime.Thread.Suspended | Runtime.Thread.Blocked ->
        failwith "Sim.run_sequential: unexpected suspension"
      | Runtime.Thread.Finished _ -> sim.finished <- true
    done;
    attribute 1;
    sim.cycle <- sim.cycle + 1
  done;
  {
    Simstats.sq_cycles = sim.cycle;
    sq_region_cycles =
      Hashtbl.fold (fun id c acc -> (id, c) :: acc) region_cycles []
      |> List.sort compare;
    sq_output = Runtime.Thread.output sim.seq_thread;
    sq_memory = sim.committed;
    sq_instrs = sim.seq_thread.Runtime.Thread.icount;
    sq_runtime = Simstats.no_runtime;
  }
  in
  { result with Simstats.sq_runtime = runtime }

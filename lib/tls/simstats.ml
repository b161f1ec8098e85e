(* Result records of the TLS simulator.

   Slot accounting follows Figure 2's methodology: during parallel
   execution, every cycle provides (issue width x processors) graduation
   slots.  "busy" slots graduated an instruction of an epoch that
   eventually committed; "sync" slots were spent stalled on wait
   instructions (scalar or memory) of committed epochs; "fail" slots are
   everything consumed by attempts that were later squashed or discarded;
   "other" is the remainder (latency stalls, commit waits, idle
   processors). *)

type slots = {
  mutable s_busy : int;
  mutable s_sync : int;
  mutable s_fail : int;
  mutable s_other_stall : int;   (* latency stalls of committed attempts *)
  mutable s_total : int;         (* wall slots: cycles x procs x width *)
}

let fresh_slots () =
  { s_busy = 0; s_sync = 0; s_fail = 0; s_other_stall = 0; s_total = 0 }

(* Everything not otherwise classified: latency stalls, commit waits, idle
   processors. *)
let other s = max 0 (s.s_total - s.s_busy - s.s_sync - s.s_fail)

(* Violated loads classified by which scheme had marked them when the
   violation happened (Figure 11). *)
type attribution = {
  mutable v_comp_only : int;
  mutable v_hw_only : int;
  mutable v_both : int;
  mutable v_neither : int;
}

let fresh_attribution () =
  { v_comp_only = 0; v_hw_only = 0; v_both = 0; v_neither = 0 }

(* Host-side measurements of one simulator run.  These are the only
   nondeterministic fields of a result: wall time and allocation depend
   on the machine, GC state, and what else the process is doing, never
   on the simulated program.  Determinism checks must go through
   [strip_runtime] / [fingerprint], which zero them out. *)
type runtime_counters = {
  rt_wall_ns : int;             (* host wall-clock time of the run *)
  rt_minor_words : float;       (* minor-heap words allocated by the run *)
  rt_major_words : float;       (* major-heap words allocated by the run *)
}

let no_runtime = { rt_wall_ns = 0; rt_minor_words = 0.0; rt_major_words = 0.0 }

(* Measure one run of either engine.  [Gc.counters] reads the calling
   domain's cumulative counters including its current minor heap, so the
   difference is what [f] itself allocated.  [Gc.quick_stat] would not
   do: OCaml 5 updates it only at minor collections, so a run that fits
   between two read 0 words. *)
let with_runtime_counters f =
  let t0 = Unix.gettimeofday () in
  let minor0, _, major0 = Gc.counters () in
  let v = f () in
  let minor1, _, major1 = Gc.counters () in
  let rt =
    {
      rt_wall_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9);
      rt_minor_words = minor1 -. minor0;
      rt_major_words = major1 -. major0;
    }
  in
  (v, rt)

(* Finite-resource accounting (DESIGN §12): degradation events and peak
   occupancies of the bounded hardware structures.  Deterministic for a
   given configuration, but — like [runtime] — excluded from fingerprints:
   with default (unbounded) limits every counter is zero and tightening a
   limit must change the digest only through its architectural effects
   (extra violations, stall cycles), not through the bookkeeping itself. *)
type resources = {
  mutable rs_sig_drops : int;        (* signals degraded to NULL: full buffer *)
  mutable rs_spec_overflows : int;   (* lines tracked past the epoch limit *)
  mutable rs_spec_stalls : int;      (* epochs parked until oldest (stall) *)
  mutable rs_spec_squashes : int;    (* epochs squashed by policy (squash) *)
  mutable rs_bp_signals : int;       (* signals that hit backpressure *)
  mutable rs_bp_slots : int;         (* issue slots spent producer-stalled *)
  mutable rs_peak_spec_lines : int;  (* peak speculative lines of any epoch *)
  mutable rs_peak_fwd_queue : int;   (* peak unconsumed-signal queue depth *)
  mutable rs_hw_evictions : int;     (* LRU evictions from the hw sync table *)
  mutable rs_peak_hw_table : int;    (* peak hw sync table occupancy *)
}

let fresh_resources () =
  {
    rs_sig_drops = 0;
    rs_spec_overflows = 0;
    rs_spec_stalls = 0;
    rs_spec_squashes = 0;
    rs_bp_signals = 0;
    rs_bp_slots = 0;
    rs_peak_spec_lines = 0;
    rs_peak_fwd_queue = 0;
    rs_hw_evictions = 0;
    rs_peak_hw_table = 0;
  }

type result = {
  total_cycles : int;
  seq_cycles : int;               (* cycles outside speculative regions *)
  region_cycles : int;            (* wall-clock cycles in TLS mode *)
  slots : slots;
  violations : int;               (* dependence violations (squash causes) *)
  attribution : attribution;
  epochs_committed : int;
  epochs_squashed : int;
  output : int list;
  final_memory : Runtime.Memory.t;
  max_signal_buffer : int;        (* peak signal-address-buffer occupancy *)
  region_cycle_by_id : (int * int) list;  (* region id -> wall cycles *)
  region_instances : (int * int) list;    (* region id -> activations *)
  l1_miss_rate : float;
  hw_marked_loads : int;          (* distinct loads ever in the hw table *)
  vpred_predictions : int;
  faults_fired : int;             (* injected faults that actually armed *)
  runtime : runtime_counters;
  resources : resources;
  (* Per-channel committed sync-stall slots and per-load violation counts
     (sorted assoc lists).  Like [resources], excluded from fingerprints:
     they are pure bookkeeping refinements of [slots.s_sync] and
     [violations], consumed by the static-cost validator. *)
  sync_stall_by_channel : (int * int) list;
  violated_load_counts : (int * int) list;
}

type seq_result = {
  sq_cycles : int;
  sq_region_cycles : (int * int) list;  (* region id -> cycles inside *)
  sq_output : int list;
  sq_memory : Runtime.Memory.t;
  sq_instrs : int;
  sq_runtime : runtime_counters;
}

(* ------------------------------------------------------------------ *)
(* Determinism support                                                 *)
(* ------------------------------------------------------------------ *)

let strip_runtime r = { r with runtime = no_runtime }
let strip_seq_runtime r = { r with sq_runtime = no_runtime }

(* Committed memory as a canonical sorted association list: hash-table
   internals (bucket layout, resize history) must not leak into the
   fingerprint. *)
let canonical_memory m =
  let acc = ref [] in
  Runtime.Memory.iter m (fun k v -> acc := (k, v) :: !acc);
  List.sort compare !acc

(* Byte-exact digest of everything deterministic in a result.  Two runs
   of the same configuration over the same program and input must agree
   on this digest; host-side runtime counters and resource bookkeeping
   are excluded.  The tuple below mirrors, field for field, the result
   record as it stood before [resources] existed — records and tuples
   share their Marshal representation, so digests remain byte-comparable
   across that addition. *)
let fingerprint r =
  let r = strip_runtime r in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( ( r.total_cycles,
              r.seq_cycles,
              r.region_cycles,
              r.slots,
              r.violations,
              r.attribution,
              r.epochs_committed,
              r.epochs_squashed,
              r.output,
              Runtime.Memory.create (),
              r.max_signal_buffer,
              r.region_cycle_by_id,
              r.region_instances,
              r.l1_miss_rate,
              r.hw_marked_loads,
              r.vpred_predictions,
              r.faults_fired,
              r.runtime ),
            canonical_memory r.final_memory )
          []))

let seq_fingerprint r =
  let r = strip_seq_runtime r in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( { r with sq_memory = Runtime.Memory.create () },
            canonical_memory r.sq_memory )
          []))

type t = {
  w : Workloads.Workload.t;
  ref_output : int list;
  seq : Tls.Simstats.seq_result;
  seq_region_cycles : int;
  u : Tlscore.Pipeline.compiled;
  t_build : Tlscore.Pipeline.compiled;
  c : Tlscore.Pipeline.compiled;
  mutable oracle_u : Tls.Oracle.t option;
  mutable oracle_c : Tls.Oracle.t option;
}

let make (w : Workloads.Workload.t) =
  let threshold = Tlscore.Pipeline.default_threshold in
  let source = w.Workloads.Workload.source in
  let train = w.Workloads.Workload.train_input in
  let ref_input = w.Workloads.Workload.ref_input in
  (* Sequential reference semantics. *)
  let original = Tlscore.Pipeline.original ~source in
  let code0 = Runtime.Code.of_prog original in
  let mem0 = Runtime.Memory.create () in
  let ref_output = Runtime.Thread.run_sequential code0 ~input:ref_input mem0 in
  (* Configurations; selection always from the train loop profile. *)
  let u =
    Tlscore.Pipeline.compile ~source ~profile_input:train
      ~memory_sync:Tlscore.Pipeline.No_memory_sync ()
  in
  let selection = u.Tlscore.Pipeline.selected in
  let t_build =
    Tlscore.Pipeline.compile ~selection ~source ~profile_input:train
      ~memory_sync:(Tlscore.Pipeline.Profiled { dep_input = train; threshold })
      ()
  in
  let c =
    Tlscore.Pipeline.compile ~selection ~source ~profile_input:train
      ~memory_sync:
        (Tlscore.Pipeline.Profiled { dep_input = ref_input; threshold })
      ()
  in
  (* Timed sequential reference, tracking the selected loop extents. *)
  let seq =
    Tls.Sim.run_sequential Tls.Config.default code0 ~input:ref_input
      ~track:u.Tlscore.Pipeline.code.Runtime.Code.regions
  in
  let seq_region_cycles =
    List.fold_left (fun acc (_, c) -> acc + c) 0
      seq.Tls.Simstats.sq_region_cycles
  in
  {
    w;
    ref_output;
    seq;
    seq_region_cycles;
    u;
    t_build;
    c;
    oracle_u = None;
    oracle_c = None;
  }

let oracle_for_u t =
  match t.oracle_u with
  | Some o -> o
  | None ->
    let o =
      Tls.Oracle.record t.u.Tlscore.Pipeline.code
        ~input:t.w.Workloads.Workload.ref_input
    in
    t.oracle_u <- Some o;
    o

let oracle_for_c t =
  match t.oracle_c with
  | Some o -> o
  | None ->
    let o =
      Tls.Oracle.record t.c.Tlscore.Pipeline.code
        ~input:t.w.Workloads.Workload.ref_input
    in
    t.oracle_c <- Some o;
    o

let run t cfg (compiled : Tlscore.Pipeline.compiled) ?oracle () =
  let r =
    Tls.Sim.run cfg compiled.Tlscore.Pipeline.code
      ~input:t.w.Workloads.Workload.ref_input ?oracle ()
  in
  let oracle_active =
    match cfg.Tls.Config.oracle, cfg.Tls.Config.forward_timing with
    | Tls.Config.Oracle_none, Tls.Config.Forward_perfect -> true
    | Tls.Config.Oracle_none, _ -> false
    | _, _ -> true
  in
  (* Limit-study oracles replay recorded values; if the replay ever
     desynchronizes the output could differ, which we tolerate only for
     oracle modes. *)
  if (not oracle_active) && r.Tls.Simstats.output <> t.ref_output then
    failwith
      (Printf.sprintf "harness: %s produced wrong output under TLS"
         t.w.Workloads.Workload.name);
  r

let region_bar t (r : Tls.Simstats.result) =
  let seq_cycles = float_of_int t.seq_region_cycles in
  let total =
    Support.Stats.percent (float_of_int r.Tls.Simstats.region_cycles) seq_cycles
  in
  let slots = r.Tls.Simstats.slots in
  let all = float_of_int slots.Tls.Simstats.s_total in
  let frac n = if all = 0.0 then 0.0 else float_of_int n /. all in
  let busy = total *. frac slots.Tls.Simstats.s_busy in
  let sync = total *. frac slots.Tls.Simstats.s_sync in
  let fail = total *. frac slots.Tls.Simstats.s_fail in
  let other = max 0.0 (total -. busy -. sync -. fail) in
  (total, busy, sync, fail, other)

let coverage t =
  Support.Stats.ratio
    (float_of_int t.seq_region_cycles)
    (float_of_int t.seq.Tls.Simstats.sq_cycles)

let program_speedup t (r : Tls.Simstats.result) =
  Support.Stats.ratio
    (float_of_int t.seq.Tls.Simstats.sq_cycles)
    (float_of_int r.Tls.Simstats.total_cycles)

let region_speedup t (r : Tls.Simstats.result) =
  Support.Stats.ratio
    (float_of_int t.seq_region_cycles)
    (float_of_int r.Tls.Simstats.region_cycles)

let seq_region_speedup t (r : Tls.Simstats.result) =
  Support.Stats.ratio
    (float_of_int (t.seq.Tls.Simstats.sq_cycles - t.seq_region_cycles))
    (float_of_int r.Tls.Simstats.seq_cycles)

let table1 () =
  Support.Table.section "Table 1: simulation parameters"
  ^ "\n"
  ^ Tls.Config.describe Tls.Config.default

(* Order-preserving parallel concat_map over a pool: the cells of one
   figure are independent per benchmark, so they are the unit of work. *)
let concat_pmap (pool : Jobs.t) f items = List.concat (pool.Jobs.map f items)

(* Render one normalized-region-bar table: rows = benchmark x mode. *)
let bar_table ~title (rows : (string * string * Tls.Simstats.result * Context.t) list) =
  let header = [ "benchmark"; "mode"; "time"; "busy"; "sync"; "fail"; "other" ] in
  let body =
    List.map
      (fun (bench, mode, r, ctx) ->
        let total, busy, sync, fail, other = Context.region_bar ctx r in
        [
          bench;
          mode;
          Support.Table.pct_cell total;
          Support.Table.pct_cell busy;
          Support.Table.pct_cell sync;
          Support.Table.pct_cell fail;
          Support.Table.pct_cell other;
        ])
      rows
  in
  Support.Table.section title
  ^ "\n(normalized region execution time, % of sequential; lower is better)\n"
  ^ Support.Table.render ~header body

let fig2 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let rows =
    concat_pmap pool
      (fun (ctx : Context.t) ->
        let name = ctx.Context.w.Workloads.Workload.name in
        let u = Context.run ctx Tls.Config.u_mode ctx.Context.u () in
        let o_cfg =
          { Tls.Config.u_mode with Tls.Config.oracle = Tls.Config.Oracle_all }
        in
        let o =
          Context.run ctx o_cfg ctx.Context.u
            ~oracle:(Context.oracle_for_u ctx) ()
        in
        [ (name, "U", u, ctx); (name, "O", o, ctx) ])
      ctxs
  in
  bar_table ~title:"Figure 2: potential of perfect memory value communication"
    rows

let oracle_set_for ctx ~threshold =
  (* Loads whose inter-epoch dependence frequency (ref profile) is at
     least [threshold]; iids are the original program's, valid in the U
     binary. *)
  List.fold_left
    (fun acc (_, dp) ->
      List.fold_left
        (fun acc (a : Profiler.Profile.access) ->
          Tls.Config.Iid_set.add a.Profiler.Profile.a_iid acc)
        acc
        (Profiler.Profile.frequent_loads dp ~threshold))
    Tls.Config.Iid_set.empty
    ctx.Context.c.Tlscore.Pipeline.dep_profiles

let fig6 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let rows =
    concat_pmap pool
      (fun (ctx : Context.t) ->
        let name = ctx.Context.w.Workloads.Workload.name in
        let u = Context.run ctx Tls.Config.u_mode ctx.Context.u () in
        let bars =
          List.map
            (fun threshold ->
              let set = oracle_set_for ctx ~threshold in
              let cfg =
                {
                  Tls.Config.u_mode with
                  Tls.Config.oracle = Tls.Config.Oracle_set set;
                }
              in
              let r =
                Context.run ctx cfg ctx.Context.u
                  ~oracle:(Context.oracle_for_u ctx) ()
              in
              (Printf.sprintf ">%d%%" (int_of_float (threshold *. 100.)), r))
            [ 0.25; 0.15; 0.05 ]
        in
        (name, "U", u, ctx)
        :: List.map (fun (label, r) -> (name, label, r, ctx)) bars)
      ctxs
  in
  bar_table
    ~title:
      "Figure 6: perfect prediction of loads above a dependence-frequency \
       threshold"
    rows

let fig7 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let header = [ "benchmark"; "deps"; "dist=1"; "dist=2"; "dist>2" ] in
  let body =
    pool.Jobs.map
      (fun (ctx : Context.t) ->
        let d1 = ref 0 and d2 = ref 0 and dmore = ref 0 in
        List.iter
          (fun (_, (dp : Profiler.Profile.dep_profile)) ->
            Hashtbl.iter
              (fun dist count ->
                if dist = 1 then d1 := !d1 + count
                else if dist = 2 then d2 := !d2 + count
                else dmore := !dmore + count)
              dp.Profiler.Profile.distances)
          ctx.Context.c.Tlscore.Pipeline.dep_profiles;
        let all = !d1 + !d2 + !dmore in
        let pct v = Support.Table.pct_cell (Support.Stats.percent (float_of_int v) (float_of_int all)) in
        [
          ctx.Context.w.Workloads.Workload.name;
          string_of_int all;
          pct !d1;
          pct !d2;
          pct !dmore;
        ])
      ctxs
  in
  Support.Table.section "Figure 7: dependence distance distribution (% of dynamic dependences)"
  ^ "\n"
  ^ Support.Table.render ~header body

let fig8 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let rows =
    concat_pmap pool
      (fun (ctx : Context.t) ->
        let name = ctx.Context.w.Workloads.Workload.name in
        let u = Context.run ctx Tls.Config.u_mode ctx.Context.u () in
        let t = Context.run ctx Tls.Config.c_mode ctx.Context.t_build () in
        let c = Context.run ctx Tls.Config.c_mode ctx.Context.c () in
        [ (name, "U", u, ctx); (name, "T", t, ctx); (name, "C", c, ctx) ])
      ctxs
  in
  bar_table
    ~title:
      "Figure 8: compiler-inserted synchronization (T: train profile, C: \
       ref profile)"
    rows

let fig9 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let rows =
    concat_pmap pool
      (fun (ctx : Context.t) ->
        let name = ctx.Context.w.Workloads.Workload.name in
        let c = Context.run ctx Tls.Config.c_mode ctx.Context.c () in
        let e_cfg =
          {
            Tls.Config.c_mode with
            Tls.Config.forward_timing = Tls.Config.Forward_perfect;
          }
        in
        let e =
          Context.run ctx e_cfg ctx.Context.c
            ~oracle:(Context.oracle_for_c ctx) ()
        in
        let l_cfg =
          {
            Tls.Config.c_mode with
            Tls.Config.forward_timing = Tls.Config.Forward_at_commit;
          }
        in
        let l = Context.run ctx l_cfg ctx.Context.c () in
        [ (name, "C", c, ctx); (name, "E", e, ctx); (name, "L", l, ctx) ])
      ctxs
  in
  bar_table
    ~title:
      "Figure 9: cost of synchronization (E: perfect forwarding, L: stall \
       to previous epoch completion)"
    rows

let fig10 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let rows =
    concat_pmap pool
      (fun (ctx : Context.t) ->
        let name = ctx.Context.w.Workloads.Workload.name in
        let u = Context.run ctx Tls.Config.u_mode ctx.Context.u () in
        let c = Context.run ctx Tls.Config.c_mode ctx.Context.c () in
        let p = Context.run ctx Tls.Config.p_mode ctx.Context.u () in
        let h = Context.run ctx Tls.Config.h_mode ctx.Context.u () in
        let b = Context.run ctx Tls.Config.b_mode ctx.Context.c () in
        [
          (name, "U", u, ctx);
          (name, "C", c, ctx);
          (name, "P", p, ctx);
          (name, "H", h, ctx);
          (name, "B", b, ctx);
        ])
      ctxs
  in
  bar_table
    ~title:
      "Figure 10: compiler- vs hardware-inserted synchronization (P: value \
       prediction, H: hardware sync, B: hybrid)"
    rows

let fig11 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let header =
    [ "benchmark"; "mode"; "violations"; "comp-only"; "hw-only"; "both"; "neither" ]
  in
  let modes =
    [
      ("U", { Tls.Config.c_mode with Tls.Config.stall_compiler_sync = false });
      ("C", Tls.Config.c_mode);
      ( "H",
        {
          Tls.Config.c_mode with
          Tls.Config.stall_compiler_sync = false;
          hw_sync_stall = true;
        } );
      ("B", Tls.Config.b_mode);
    ]
  in
  let body =
    concat_pmap pool
      (fun (ctx : Context.t) ->
        List.map
          (fun (label, cfg) ->
            let r = Context.run ctx cfg ctx.Context.c () in
            let a = r.Tls.Simstats.attribution in
            [
              ctx.Context.w.Workloads.Workload.name;
              label;
              string_of_int r.Tls.Simstats.violations;
              string_of_int a.Tls.Simstats.v_comp_only;
              string_of_int a.Tls.Simstats.v_hw_only;
              string_of_int a.Tls.Simstats.v_both;
              string_of_int a.Tls.Simstats.v_neither;
            ])
          modes)
      ctxs
  in
  Support.Table.section
    "Figure 11: violated loads by which scheme had marked them (C binary, \
     selective stalling)"
  ^ "\n"
  ^ Support.Table.render ~header body

let speedup_runs (ctx : Context.t) =
  [
    ("U", Context.run ctx Tls.Config.u_mode ctx.Context.u ());
    ("C", Context.run ctx Tls.Config.c_mode ctx.Context.c ());
    ("H", Context.run ctx Tls.Config.h_mode ctx.Context.u ());
    ("B", Context.run ctx Tls.Config.b_mode ctx.Context.c ());
  ]

let fig12 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let header = [ "benchmark"; "U"; "C"; "H"; "B" ] in
  let speedup_rows =
    pool.Jobs.map
      (fun (ctx : Context.t) ->
        let runs = speedup_runs ctx in
        let cells =
          List.map (fun (_, r) -> Context.program_speedup ctx r) runs
        in
        (ctx.Context.w.Workloads.Workload.name, cells))
      ctxs
  in
  let body =
    List.map
      (fun (name, cells) -> name :: List.map (Support.Table.float_cell 2) cells)
      speedup_rows
  in
  let geo =
    match speedup_rows with
    | [] -> []
    | (_, first) :: _ ->
      let rows = List.map snd speedup_rows in
      let cols = List.length first in
      "geomean"
      :: List.init cols (fun i ->
             Support.Table.float_cell 2
               (Support.Stats.geomean (List.map (fun r -> List.nth r i) rows)))
  in
  Support.Table.section "Figure 12: whole-program speedup vs sequential"
  ^ "\n"
  ^ Support.Table.render ~header (body @ [ geo ])

let table2 ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let header =
    [
      "benchmark";
      "coverage";
      "region B";
      "region C";
      "seq-region B";
      "seq-region C";
      "program B";
      "program C";
    ]
  in
  let body =
    pool.Jobs.map
      (fun (ctx : Context.t) ->
        let b = Context.run ctx Tls.Config.b_mode ctx.Context.c () in
        let c = Context.run ctx Tls.Config.c_mode ctx.Context.c () in
        [
          ctx.Context.w.Workloads.Workload.name;
          Printf.sprintf "%.0f%%" (100.0 *. Context.coverage ctx);
          Support.Table.float_cell 2 (Context.region_speedup ctx b);
          Support.Table.float_cell 2 (Context.region_speedup ctx c);
          Support.Table.float_cell 2 (Context.seq_region_speedup ctx b);
          Support.Table.float_cell 2 (Context.seq_region_speedup ctx c);
          Support.Table.float_cell 2 (Context.program_speedup ctx b);
          Support.Table.float_cell 2 (Context.program_speedup ctx c);
        ])
      ctxs
  in
  Support.Table.section
    "Table 2: region coverage and speedups (B: compiler+hardware hybrid, \
     C: compiler-only)"
  ^ "\n"
  ^ Support.Table.render ~header body

let ablations ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let find name =
    List.find_opt
      (fun (c : Context.t) ->
        String.equal c.Context.w.Workloads.Workload.name name)
      ctxs
  in
  let buf = Buffer.create 1024 in
  let emit s = Buffer.add_string buf s in
  (* 1. Eager vs latch-only signal placement. *)
  emit (Support.Table.section "Ablation: signal placement (eager dataflow vs latch-only)");
  emit "\n";
  let rows =
    concat_pmap pool
      (fun name ->
        match find name with
        | None -> []
        | Some ctx ->
          let w = ctx.Context.w in
          let lazy_build =
            Tlscore.Pipeline.compile ~eager_signals:false
              ~selection:ctx.Context.u.Tlscore.Pipeline.selected
              ~source:w.Workloads.Workload.source
              ~profile_input:w.Workloads.Workload.train_input
              ~memory_sync:
                (Tlscore.Pipeline.Profiled
                   {
                     dep_input = w.Workloads.Workload.ref_input;
                     threshold = Tlscore.Pipeline.default_threshold;
                   })
              ()
          in
          let eager = Context.run ctx Tls.Config.c_mode ctx.Context.c () in
          let lazy_r = Context.run ctx Tls.Config.c_mode lazy_build () in
          let cell r = Support.Table.float_cell 2 (Context.region_speedup ctx r) in
          [ [ name; cell eager; cell lazy_r ] ])
      [ "gzip_decomp"; "parser"; "mcf"; "gap" ]
  in
  emit
    (Support.Table.render
       ~header:[ "benchmark"; "eager (dataflow)"; "latch-only" ]
       rows);
  emit "\n\n";
  (* 2. Hardware reset period. *)
  emit (Support.Table.section "Ablation: hardware sync table reset period (H mode)");
  emit "\n";
  let rows =
    concat_pmap pool
      (fun name ->
        match find name with
        | None -> []
        | Some ctx ->
          let run interval =
            let cfg =
              { Tls.Config.h_mode with Tls.Config.hw_reset_interval = interval }
            in
            let r = Context.run ctx cfg ctx.Context.u () in
            Printf.sprintf "%.2f (%d viol)"
              (Context.region_speedup ctx r)
              r.Tls.Simstats.violations
          in
          [ [ name; run 2_000; run 20_000; run 200_000 ] ])
      [ "m88ksim"; "vpr_place"; "twolf" ]
  in
  emit
    (Support.Table.render
       ~header:[ "benchmark"; "reset 2k"; "reset 20k"; "reset 200k" ]
       rows);
  emit "\n\n";
  (* 3. Cache-line size sensitivity of the false-sharing benchmark. *)
  emit (Support.Table.section "Ablation: cache line size vs false sharing (m88ksim, U mode)");
  emit "\n";
  (match find "m88ksim" with
  | None -> ()
  | Some ctx ->
    let rows =
      pool.Jobs.map
        (fun line_words ->
          let cfg =
            {
              Tls.Config.u_mode with
              Tls.Config.line_words;
              l1_sets = 512 * 8 / line_words;
              l2_sets = 16384 * 8 / line_words;
            }
          in
          let r = Context.run ctx cfg ctx.Context.u () in
          [
            Printf.sprintf "%dB lines" (line_words * 4);
            Support.Table.float_cell 2 (Context.region_speedup ctx r);
            string_of_int r.Tls.Simstats.violations;
          ])
        [ 2; 4; 8; 16 ]
    in
    emit
      (Support.Table.render
         ~header:[ "line size"; "region speedup"; "violations" ]
         rows));
  emit "\n\n";
  (* 4. Word-granularity dependence tracking [8]. *)
  emit
    (Support.Table.section
       "Ablation: per-word access bits (Cintra-Torrellas-style) vs \
        line-granularity tracking (U mode)");
  emit "\n";
  let rows =
    concat_pmap pool
      (fun name ->
        match find name with
        | None -> []
        | Some ctx ->
          let run word =
            let cfg =
              { Tls.Config.u_mode with Tls.Config.word_level_tracking = word }
            in
            let r = Context.run ctx cfg ctx.Context.u () in
            Printf.sprintf "%.2f (%d viol)"
              (Context.region_speedup ctx r)
              r.Tls.Simstats.violations
          in
          [ [ name; run false; run true ] ])
      [ "m88ksim"; "vpr_place"; "parser" ]
  in
  emit
    (Support.Table.render
       ~header:[ "benchmark"; "line tracking"; "word tracking" ]
       rows);
  emit "\n\n";
  (* 5. Processor-count scaling. *)
  emit (Support.Table.section "Ablation: processor count (C mode)");
  emit "\n";
  let rows =
    concat_pmap pool
      (fun name ->
        match find name with
        | None -> []
        | Some ctx ->
          let run procs =
            let cfg = { Tls.Config.c_mode with Tls.Config.num_procs = procs } in
            let r = Context.run ctx cfg ctx.Context.c () in
            Support.Table.float_cell 2 (Context.region_speedup ctx r)
          in
          [ [ name; run 2; run 4; run 8 ] ])
      [ "ijpeg"; "parser"; "gzip_decomp"; "gap" ]
  in
  emit
    (Support.Table.render ~header:[ "benchmark"; "2 procs"; "4 procs"; "8 procs" ] rows);
  Buffer.contents buf

let extensions ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Support.Table.section
       "Extension: coordinated hybrid B+ (hw skips compiler-synced loads, \
        filters useless sync)");
  Buffer.add_string buf "\n(region speedup vs sequential; B+ should track max(C,H))\n";
  let rows =
    pool.Jobs.map
      (fun (ctx : Context.t) ->
        let speed cfg compiled =
          Support.Table.float_cell 2
            (Context.region_speedup ctx (Context.run ctx cfg compiled ()))
        in
        [
          ctx.Context.w.Workloads.Workload.name;
          speed Tls.Config.c_mode ctx.Context.c;
          speed Tls.Config.h_mode ctx.Context.u;
          speed Tls.Config.b_mode ctx.Context.c;
          speed Tls.Config.bplus_mode ctx.Context.c;
        ])
      ctxs
  in
  Buffer.add_string buf
    (Support.Table.render ~header:[ "benchmark"; "C"; "H"; "B"; "B+" ] rows);
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf
    (Support.Table.section
       "Extension: stride value predictor vs last-value (P modes)");
  Buffer.add_string buf "\n";
  let rows =
    pool.Jobs.map
      (fun (ctx : Context.t) ->
        let run stride =
          let cfg = { Tls.Config.p_mode with Tls.Config.vpred_stride = stride } in
          let r = Context.run ctx cfg ctx.Context.u () in
          Printf.sprintf "%.2f (%d pred)"
            (Context.region_speedup ctx r)
            r.Tls.Simstats.vpred_predictions
        in
        [ ctx.Context.w.Workloads.Workload.name; run false; run true ])
      ctxs
  in
  Buffer.add_string buf
    (Support.Table.render
       ~header:[ "benchmark"; "P (last-value)"; "P (stride)" ]
       rows);
  Buffer.contents buf

let prose_checks ?(pool = Jobs.serial) (ctxs : Context.t list) =
  let header =
    [ "benchmark"; "max sig buffer"; "clones"; "code expansion"; "groups" ]
  in
  let body =
    pool.Jobs.map
      (fun (ctx : Context.t) ->
        let r = Context.run ctx Tls.Config.c_mode ctx.Context.c () in
        let clones, added, groups =
          List.fold_left
            (fun (c, a, g) (_, (s : Tlscore.Memsync.stats)) ->
              ( c + s.Tlscore.Memsync.ms_clones,
                a + s.Tlscore.Memsync.ms_instrs_added,
                g + s.Tlscore.Memsync.ms_groups ))
            (0, 0, 0) ctx.Context.c.Tlscore.Pipeline.mem_stats
        in
        let total = Ir.Prog.static_size ctx.Context.c.Tlscore.Pipeline.prog in
        [
          ctx.Context.w.Workloads.Workload.name;
          string_of_int r.Tls.Simstats.max_signal_buffer;
          string_of_int clones;
          Printf.sprintf "%.1f%%"
            (Support.Stats.percent (float_of_int added) (float_of_int total));
          string_of_int groups;
        ])
      ctxs
  in
  Support.Table.section
    "Prose checks: signal address buffer occupancy (paper: <= 10), cloning \
     code expansion (paper: < 1% average)"
  ^ "\n"
  ^ Support.Table.render ~header body

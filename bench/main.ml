(* Benchmark harness.

   Part 1 — Bechamel microbenchmarks of the kernels behind each
   experiment: frontend, lowering, profiling, the synchronization pass,
   and the simulator in its sequential and TLS modes.

   Part 2 — full regeneration of every table and figure of the paper
   (the same output `bin/experiments` produces), so that
   `dune exec bench/main.exe` yields the complete evaluation.  Pass
   `-- --jobs N` to compute part 2's per-benchmark cells on N domains;
   the rendered bytes do not depend on N. *)

open Bechamel
open Toolkit

let bench_source =
  (Option.get (Workloads.Registry.find "mcf")).Workloads.Workload.source

let bench_input =
  (Option.get (Workloads.Registry.find "mcf")).Workloads.Workload.ref_input

let compiled_u =
  lazy
    (Tlscore.Pipeline.compile ~source:bench_source ~profile_input:bench_input
       ~memory_sync:Tlscore.Pipeline.No_memory_sync ())

let compiled_c =
  lazy
    (Tlscore.Pipeline.compile ~source:bench_source ~profile_input:bench_input
       ~memory_sync:
         (Tlscore.Pipeline.Profiled
            { dep_input = bench_input; threshold = 0.05 })
       ())

let tests =
  [
    Test.make ~name:"frontend: lex+parse+check"
      (Staged.stage (fun () -> ignore (Lang.Sema.check_source bench_source)));
    Test.make ~name:"compile: lower to IR"
      (Staged.stage (fun () -> ignore (Ir.Lower.compile_source bench_source)));
    Test.make ~name:"profile: loop+dep profiling run"
      (Staged.stage (fun () ->
           let prog = Ir.Lower.compile_source bench_source in
           let loops = Profiler.Runner.all_loops prog in
           ignore (Profiler.Runner.run prog ~input:bench_input ~watch:loops)));
    Test.make ~name:"pass: full pipeline with memory sync"
      (Staged.stage (fun () ->
           ignore
             (Tlscore.Pipeline.compile ~source:bench_source
                ~profile_input:bench_input
                ~memory_sync:
                  (Tlscore.Pipeline.Profiled
                     { dep_input = bench_input; threshold = 0.05 })
                ())));
    Test.make ~name:"sim: sequential timing run"
      (Staged.stage (fun () ->
           let u = Lazy.force compiled_u in
           ignore
             (Tls.Sim.run_sequential Tls.Config.default
                u.Tlscore.Pipeline.code ~input:bench_input
                ~track:u.Tlscore.Pipeline.code.Runtime.Code.regions)));
    Test.make ~name:"sim: TLS run (U, speculation)"
      (Staged.stage (fun () ->
           let u = Lazy.force compiled_u in
           ignore
             (Tls.Sim.run Tls.Config.u_mode u.Tlscore.Pipeline.code
                ~input:bench_input ())));
    Test.make ~name:"sim: TLS run (C, compiler sync)"
      (Staged.stage (fun () ->
           let c = Lazy.force compiled_c in
           ignore
             (Tls.Sim.run Tls.Config.c_mode c.Tlscore.Pipeline.code
                ~input:bench_input ())));
  ]

let run_microbenchmarks () =
  print_endline
    (Support.Table.section "Microbenchmarks (Bechamel, monotonic clock)");
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~stabilize:true ()
  in
  let rows =
    List.concat_map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analyzed = Analyze.all ols Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name ols_result acc ->
            let ns =
              match Analyze.OLS.estimates ols_result with
              | Some (est :: _) -> est
              | Some [] | None -> nan
            in
            [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ] :: acc)
          analyzed [])
      tests
  in
  print_endline (Support.Table.render ~header:[ "kernel"; "time/run" ] rows);
  print_newline ()

let run_experiments pool =
  let ctxs =
    pool.Harness.Jobs.map
      (fun (w : Workloads.Workload.t) ->
        Printf.eprintf "[setup] %s\n%!" w.Workloads.Workload.name;
        Harness.Context.make w)
      Workloads.Registry.all
  in
  print_endline (Harness.Figures.table1 ());
  print_newline ();
  List.iter
    (fun (name, f) ->
      Printf.eprintf "[bench] %s\n%!" name;
      print_endline (f pool ctxs);
      print_newline ())
    [
      ("fig2", fun pool ctxs -> Harness.Figures.fig2 ~pool ctxs);
      ("fig6", fun pool ctxs -> Harness.Figures.fig6 ~pool ctxs);
      ("fig7", fun pool ctxs -> Harness.Figures.fig7 ~pool ctxs);
      ("fig8", fun pool ctxs -> Harness.Figures.fig8 ~pool ctxs);
      ("fig9", fun pool ctxs -> Harness.Figures.fig9 ~pool ctxs);
      ("fig10", fun pool ctxs -> Harness.Figures.fig10 ~pool ctxs);
      ("fig11", fun pool ctxs -> Harness.Figures.fig11 ~pool ctxs);
      ("fig12", fun pool ctxs -> Harness.Figures.fig12 ~pool ctxs);
      ("table2", fun pool ctxs -> Harness.Figures.table2 ~pool ctxs);
      ("prose", fun pool ctxs -> Harness.Figures.prose_checks ~pool ctxs);
      ("ablations", fun pool ctxs -> Harness.Figures.ablations ~pool ctxs);
      ("extensions", fun pool ctxs -> Harness.Figures.extensions ~pool ctxs);
    ]

(* The Bechamel half needs no CLI, so keep argument handling minimal:
   `main.exe [--jobs N]`.  A bad N is a usage error (exit 2), checked
   before any benchmark runs. *)
let jobs_of_argv () =
  let usage n =
    Printf.eprintf "bad --jobs %S (want a positive integer)\n" n;
    exit 2
  in
  let rec scan = function
    | "--jobs" :: n :: _ -> (
      match int_of_string_opt n with Some j when j >= 1 -> j | _ -> usage n)
    | [ "--jobs" ] -> usage ""
    | _ :: rest -> scan rest
    | [] -> 1
  in
  scan (Array.to_list Sys.argv)

let () =
  let jobs = jobs_of_argv () in
  run_microbenchmarks ();
  run_experiments (Harness.Jobs.create ~jobs ())

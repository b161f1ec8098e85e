(* Regenerate the paper's tables and figures.

   Usage:
     experiments                  # everything
     experiments fig8 table2     # selected experiments
     experiments --bench parser --bench gap fig10   # selected benchmarks
     experiments --jobs 4        # domain-parallel cells, same bytes *)

type experiment = ?pool:Harness.Jobs.t -> Harness.Context.t list -> string

(* Every experiment by name, in the order a full run prints them; only
   table1 needs no per-benchmark context. *)
let experiments : (string * experiment) list =
  let open Harness.Figures in
  [
    ("table1", fun ?pool:_ _ -> table1 ());
    ("fig2", fig2); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8);
    ("fig9", fig9); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
    ("table2", table2); ("prose", prose_checks); ("ablations", ablations);
    ("extensions", extensions);
  ]

let run_experiments jobs benches selected =
  let pool = Harness.Jobs.create ~jobs () in
  let workloads = if benches = [] then Workloads.Registry.all else benches in
  let selected =
    if selected = [] then experiments
    else List.map (fun name -> (name, List.assoc name experiments)) selected
  in
  let ctxs =
    if List.exists (fun (name, _) -> name <> "table1") selected then
      pool.Harness.Jobs.map
        (fun (w : Workloads.Workload.t) ->
          Printf.eprintf "[setup] %s\n%!" w.Workloads.Workload.name;
          Harness.Context.make w)
        workloads
    else []
  in
  List.iter
    (fun (name, (run : experiment)) ->
      Printf.eprintf "[run] %s\n%!" name;
      print_endline (run ~pool ctxs);
      print_newline ())
    selected

open Cmdliner

let jobs =
  let doc =
    "Worker domains for per-benchmark cells (1 = serial; output is \
     byte-identical for any value)."
  in
  (* Range-checked at parse time: 0 or less is a usage error (exit 2),
     not a silent serial run. *)
  Arg.(
    value & opt (Cli.int_at_least 1) 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Names are checked while parsing, exactly (no abbreviations): a bad one
   exits 2 before any setup. *)
let benches =
  let doc = "Restrict to one benchmark (repeatable)." in
  let workload =
    Cli.exact
      (List.map
         (fun (w : Workloads.Workload.t) -> (w.name, w))
         Workloads.Registry.all)
  in
  Arg.(value & opt_all workload [] & info [ "bench"; "b" ] ~docv:"NAME" ~doc)

let selected =
  let doc = "Experiments to run (default: all)." in
  let names = List.map (fun (name, _) -> (name, name)) experiments in
  Arg.(
    value & pos_all (Cli.exact names) [] & info [] ~docv:"EXPERIMENT" ~doc)

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "experiments" ~doc)
    Term.(const run_experiments $ jobs $ benches $ selected)

(* A command-line error exits 2 with its one-line message (Cli.eval). *)
let () =
  let code, text = Cli.eval cmd in
  prerr_string text;
  exit code

(* Facade over the two simulator cores (DESIGN §15).

   [Sim_ref] is the original cycle-stepped engine, kept alive as the
   oracle; [Sim_event] is the event-queue core that skips to the next
   interesting cycle and runs the hot path on flat mutable arrays and
   preallocated scratch buffers.  Both raise the shared [Simdiag]
   exceptions and must produce byte-identical observables; the engine is
   selected per run by {!Config.t.engine} (default [Engine_event],
   [--engine ref|event] on the CLI). *)

include Simdiag

let run cfg code ~input ?oracle () =
  match cfg.Config.engine with
  | Config.Engine_ref -> Sim_ref.run cfg code ~input ?oracle ()
  | Config.Engine_event -> Sim_event.run cfg code ~input ?oracle ()

(* The sequential timed run has no per-epoch hot path; the reference
   implementation serves both engines. *)
let run_sequential = Sim_ref.run_sequential

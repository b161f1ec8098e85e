(** Single-threaded IR execution engine with pluggable memory/sync hooks.

    Both the profiling interpreter and each simulated TLS processor drive
    one of these: the engine owns control flow (frames, program counters)
    while the driver owns memory semantics, synchronization, and timing
    through {!hooks}.

    One [step] executes exactly one instruction or one terminator, so
    drivers can charge latencies per dynamic instruction. *)

type frame = {
  cfunc : Code.cfunc;
  regs : int array;
  mutable block : Ir.Instr.label;
  mutable pc : int;                    (* next instruction index *)
  ret_to : Ir.Instr.reg option;        (* caller register for a return value *)
  call_iid : Ir.Instr.iid;             (* call-site id; -1 at the root *)
}

type t = {
  code : Code.t;
  mutable frames : frame list;         (* innermost first *)
  input : int array;
  mutable output : int list;           (* reversed print stream *)
  mutable icount : int;                (* dynamic instructions executed *)
}

(** What a successful step did. *)
type event =
  | Exec of Ir.Instr.t                       (* straight-line instruction *)
  | Goto of string * Ir.Instr.label * Ir.Instr.label
      (* function, from-block, target: a taken Jmp/Br *)
  | Return of string * int option            (* popped a frame *)

type outcome =
  | Ran of event
  | Blocked                    (* a wait hook refused; thread unchanged *)
  | Suspended                  (* the control hook declined a transition *)
  | Finished of int option     (* returned from the outermost frame *)

type hooks = {
  load : t -> Ir.Instr.t -> int -> int;
  store : t -> Ir.Instr.t -> int -> int -> unit;
  wait_scalar : t -> Ir.Instr.t -> Ir.Instr.channel -> int option;
  signal_scalar : t -> Ir.Instr.t -> Ir.Instr.channel -> int -> unit;
  wait_mem : t -> Ir.Instr.t -> Ir.Instr.channel -> bool;
  sync_load : t -> Ir.Instr.t -> Ir.Instr.channel -> int -> int;
  signal_mem : t -> Ir.Instr.t -> Ir.Instr.channel -> int -> unit;
  signal_mem_if_unsent : t -> Ir.Instr.t -> Ir.Instr.channel -> int -> unit;
  signal_null : t -> Ir.Instr.t -> Ir.Instr.channel -> unit;
  signal_null_if_unsent : t -> Ir.Instr.t -> Ir.Instr.channel -> unit;
  (* Consulted before following a Jmp/Br; [false] suspends the thread with
     the transition not taken (used to detect epoch boundaries). *)
  control : t -> target:Ir.Instr.label -> bool;
}

(** Hooks implementing plain sequential semantics over the given memory:
    sync instructions are no-ops ([Sync_load] degenerates to [Load]). *)
val sequential_hooks : Memory.t -> hooks

(** Start a thread at the entry of [func_name] (normally ["main"]). *)
val create : Code.t -> func_name:string -> input:int array -> t

(** Start a thread from an explicit base frame (epoch execution). *)
val create_from_frame : Code.t -> frame -> input:int array -> t

(** Deep-copy a frame (registers included). *)
val copy_frame : frame -> frame

val current_frame : t -> frame
val depth : t -> int

(** Execute one instruction or terminator under the given hooks. *)
val step : t -> hooks -> outcome

(** The instruction the thread will execute next, if it is a straight-line
    instruction (terminators return [None]). *)
val next_instr : t -> Ir.Instr.t option

(** Output in print order. *)
val output : t -> int list

(** Raised by {!run_sequential} and by the profiler's runner when the step
    budget is exhausted (a non-terminating program, or a budget set too
    low for the workload). *)
exception Step_limit of { max_steps : int; icount : int }

(** Raised by {!run_sequential} and by the profiler's runner when the
    thread blocks or suspends: under pure sequential hooks neither can
    happen, so this indicates malformed code or hooks. *)
exception Unexpected_stop of { reason : string; icount : int }

(** Run under sequential hooks until finished or [max_steps] is hit;
    returns the outputs.
    @raise Step_limit on exceeding [max_steps].
    @raise Unexpected_stop if the thread blocks or suspends. *)
val run_sequential :
  ?max_steps:int -> Code.t -> input:int array -> Memory.t -> int list

(** Immutable execution snapshot of an IR program.

    Block instruction lists become arrays for O(1) program-counter
    indexing; taken after all compiler passes have run. *)

type cblock = {
  instrs : Ir.Instr.t array;
  term : Ir.Instr.terminator;
}

type cfunc = {
  cf_id : int;  (** dense index, stable across the snapshot (source order) *)
  cf_name : string;
  cf_nregs : int;
  cf_params : Ir.Instr.reg list;
  cf_blocks : cblock array;
}

type t = {
  funcs : (string, cfunc) Hashtbl.t;
  layout : Ir.Layout.t;
  regions : Ir.Region.t list;
  initial_stores : (int * int) list;
}

val of_prog : Ir.Prog.t -> t

(** @raise Not_found on unknown function. *)
val func : t -> string -> cfunc

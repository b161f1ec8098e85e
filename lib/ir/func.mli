(** IR functions: a CFG of basic blocks over virtual registers.

    Labels are indices into the block array; block 0 is the entry.  Blocks
    and instruction lists are mutable because the synchronization passes
    rewrite them in place. *)

type block = {
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
}

type t = {
  name : string;
  params : (string * Instr.reg) list;
  mutable nregs : int;
  mutable blocks : block array;
  reg_names : (Instr.reg, string) Hashtbl.t;  (* debug names *)
}

(** [create name param_names] allocates registers for the parameters. *)
val create : string -> string list -> t

(** Allocate a fresh virtual register, optionally debug-named. *)
val fresh_reg : ?name:string -> t -> Instr.reg

(** Append an empty block (terminator [Ret None] until set); returns label. *)
val add_block : t -> Instr.label

val block : t -> Instr.label -> block
val entry : Instr.label
val num_blocks : t -> int

(** Successor labels of a block. *)
val successors : t -> Instr.label -> Instr.label list

(** Predecessor map, one entry per block label. *)
val predecessors : t -> Instr.label list array

(** Iterate over all instructions with their block label. *)
val iter_instrs : t -> (Instr.label -> Instr.t -> unit) -> unit

(** Debug name of a register, or ["r<n>"]. *)
val reg_name : t -> Instr.reg -> string

(** Structural copy that keeps instruction ids.  Blocks are fresh records
    so mutating the clone's instruction lists leaves the original intact;
    the (immutable) instructions themselves are shared. *)
val clone : t -> t

(** Total static instruction count (terminators excluded). *)
val instr_count : t -> int

(** Andersen-style flow-insensitive points-to/alias analysis over the
    register IR.

    Abstract objects are the program's globals (an array is one summarized
    object); the machine has no heap and no stack memory, so these are the
    whole universe.  Register copies are collapsed with a union-find;
    arithmetic, loads, stores, call/return bindings, and the TLS forwarding
    channels (scalar signal -> wait, memory signal -> checked load) become
    subset constraints solved to a fixpoint.

    Soundness contract: [may_alias] answers [false] only between addresses
    the analysis fully accounts for.  A register not derived from any
    global base abstracts to [Unknown], which aliases everything.  Element
    addresses ([base + index*scale]) are assumed in bounds, i.e. an access
    through a pointer derived from object [o] stays within [o]. *)

module Int_set : Set.S with type elt = int

(** Abstraction of an access address. *)
type addr =
  | Exact of int           (* a folded constant address *)
  | Objects of Int_set.t   (* somewhere within one of these objects *)
  | Unknown                (* not derived from any global base *)

type t

val analyze : Ir.Prog.t -> t

val num_objects : t -> int

val object_name : t -> int -> string

(** Base word address and size in words of object [k]. *)
val object_extent : t -> int -> int * int

(** Object whose word range contains the given address, if any. *)
val object_containing : t -> int -> int option

(** May-point-to abstraction of a register in a function.  An unknown
    function or an empty points-to set yields [Unknown]. *)
val reg_addr : t -> string -> Ir.Instr.reg -> addr

(** Abstraction of an address operand ([Imm] is [Exact]). *)
val operand_addr : t -> string -> Ir.Instr.operand -> addr

val may_alias : t -> addr -> addr -> bool

(** Human-readable form for diagnostics (object names when known). *)
val pp_addr : t -> addr -> string

(** Memory layout of the simulated address space.

    The machine is word-addressed: every [int] and pointer occupies one
    word; a struct occupies one word per field.  Globals are laid out
    consecutively in declaration order starting at {!globals_base} — so two
    adjacent scalar globals share a cache line, which is how the
    false-sharing workload (m88ksim-like) gets its behaviour. *)

type t

(** Base address of the global segment. *)
val globals_base : int

(** Build the layout from the checked program. *)
val build : Lang.Tast.tprogram -> t

(** [sizeof layout ty] in words.  Structs are the sum of their fields. *)
val sizeof : t -> Lang.Ast.ty -> int

(** [field_offset layout struct_name field] in words.
    @raise Not_found for unknown struct/field. *)
val field_offset : t -> string -> string -> int

(** [global_addr layout name] is the word address of a global.
    @raise Not_found for unknown globals. *)
val global_addr : t -> string -> int

(** All globals in declaration order as [(name, addr, words)] — the
    abstract memory objects of the points-to analysis (an array is one
    summarized object). *)
val globals : t -> (string * int * int) list

(** Total extent of the global segment in words (for memory sizing). *)
val globals_extent : t -> int

(** Initial (address, value) pairs from scalar global initializers. *)
val initial_stores : t -> (int * int) list

(** Best-effort reverse lookup for diagnostics: name+offset at an address. *)
val describe_addr : t -> int -> string

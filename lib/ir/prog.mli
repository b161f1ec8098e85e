(** A whole IR program: functions, memory layout, parallelized regions, and
    the global static-instruction-id allocator. *)

type iid_info = {
  in_func : string;
  what : string;          (* short description, e.g. "load" or "call use_element" *)
}

type t = {
  layout : Layout.t;
  mutable funcs : (string * Func.t) list;   (* in definition order *)
  by_name : (string, Func.t) Hashtbl.t;
  mutable next_iid : Instr.iid;
  iid_infos : (Instr.iid, iid_info) Hashtbl.t;
  mutable regions : Region.t list;
  mutable next_region_id : int;
  mutable next_channel : Instr.channel;
}

val create : Layout.t -> t

val fresh_iid : t -> in_func:string -> what:string -> Instr.iid

(** Register a function (last definition wins on duplicates). *)
val add_func : t -> Func.t -> unit

(** @raise Not_found on unknown functions. *)
val func : t -> string -> Func.t

val func_opt : t -> string -> Func.t option

val iid_info : t -> Instr.iid -> iid_info option

(** Allocate a region id. *)
val fresh_region_id : t -> int

(** Allocate a program-unique synchronization channel id.  Channels are
    globally unique so the simulator can tell an epoch's own channels from
    those of a (sequentially executed) nested region. *)
val fresh_channel : t -> Instr.channel

(** Copy with independently mutable functions/blocks but the same
    instruction ids, so profiles and region metadata keyed by iid still
    apply.  Regions and layout are shared with the original; intended for
    applying destructive IR mutations without disturbing the source. *)
val clone : t -> t

(** Total static instructions across all functions. *)
val static_size : t -> int

(** Profile data produced by the instrumented interpreter.

    Two kinds of information, matching the paper's two uses of profiling:
    - {!loop_stats}: per-loop coverage/trip-count/epoch-size numbers that
      drive region selection (paper §3.1);
    - {!dep_profile}: context-sensitive inter-epoch memory dependence
      frequencies and distances for the loops chosen as speculative regions
      (paper §2.3). *)

(** A static loop, identified by its function and header label. *)
type loop_key = { lk_func : string; lk_header : Ir.Instr.label }

(** A memory access named as the paper names it: static instruction id plus
    the call stack rooted at the parallelized loop (list of call-site iids,
    outermost first; [\[\]] = directly in the loop body). *)
type access = { a_iid : Ir.Instr.iid; a_ctx : Ir.Instr.iid list }

type dep = { producer : access; consumer : access }

type loop_stats = {
  mutable instances : int;       (* times the loop was entered *)
  mutable iterations : int;      (* epochs = header arrivals: an N-trip
                                    for/while loop counts N+1 (the final
                                    exit-test arrival runs as an epoch,
                                    as it does on the TLS machine) *)
  mutable dyn_instrs : int;      (* dynamic instructions inside the loop,
                                    callees included *)
  mutable nested_instances : int;
      (* instances entered while another loop instance was already active
         (in this or an outer frame): such instances would execute
         sequentially inside an enclosing speculative region, so region
         selection discounts them *)
}

type dep_profile = {
  mutable total_epochs : int;
  (* consumer epochs in which each dependence occurred at least once *)
  dep_epochs : (dep, int) Hashtbl.t;
  (* consumer epochs in which each load depended on an earlier epoch *)
  load_dep_epochs : (access, int) Hashtbl.t;
  (* dependence distance (in epochs) -> occurrence count *)
  distances : (int, int) Hashtbl.t;
}

type t = {
  loops : (loop_key, loop_stats) Hashtbl.t;
  deps : (loop_key, dep_profile) Hashtbl.t;   (* only watched loops *)
  mutable total_instrs : int;
  output : int list;                           (* program output, for checks *)
}

val fresh_dep_profile : unit -> dep_profile

(** Fraction of program instructions spent in the loop (0..1). *)
val coverage : t -> loop_key -> float

(** Stats lookup; zeroed stats if the loop never ran. *)
val stats : t -> loop_key -> loop_stats

val dep_profile : t -> loop_key -> dep_profile option

(** Dependences whose consumer-epoch frequency is at least [threshold]
    (fraction of the loop's epochs, e.g. 0.05). *)
val frequent_deps : dep_profile -> threshold:float -> dep list

(** Loads that depend on an earlier epoch in at least [threshold] of
    epochs. *)
val frequent_loads : dep_profile -> threshold:float -> access list

(** Distance histogram as (distance, count) sorted by distance. *)
val distance_histogram : dep_profile -> (int * int) list

val pp_access : access -> string

(** Graphviz rendering of the dependence graph (the paper's Figure 5):
    one vertex per (instruction, call stack) access, one edge per
    recorded dependence labelled with its epoch frequency.  Edges at or
    above [threshold] are drawn solid (they form the synchronization
    groups); infrequent ones dashed. *)
val to_dot : threshold:float -> dep_profile -> string

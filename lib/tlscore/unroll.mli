(** Loop unrolling for speculative regions (paper §3.1: "the compiler
    automatically applies loop unrolling to small loops to help amortize
    the overheads of speculative parallelization").

    The transformation duplicates the loop body [factor - 1] times and
    chains the back edges through the copies, so control only returns to
    the original header every [factor] iterations.  Since an epoch is one
    header-to-header traversal, epochs become [factor] source iterations:
    per-epoch spawn/commit/forwarding overheads are amortized, and
    distance-1 dependences between iterations of the same epoch become
    intra-epoch (no synchronization needed).  Loop semantics are untouched
    — every copy still evaluates its exit conditions, so early exits and
    arbitrary trip counts work unchanged. *)

(** [apply prog key ~factor] unrolls the loop at [key].  Returns the
    number of blocks added.  The loop keeps its header label, so region
    creation after unrolling finds the (larger) natural loop.
    @raise Failure if the loop cannot be found or [factor < 2]. *)
val apply : Ir.Prog.t -> Profiler.Profile.loop_key -> factor:int -> int

(** Unroll factor suggested by the loop profile: small epochs are unrolled
    until they reach roughly 40 dynamic instructions, capped at a factor
    of 4; loops already big enough return 1. *)
val suggested_factor : Profiler.Profile.t -> Profiler.Profile.loop_key -> int

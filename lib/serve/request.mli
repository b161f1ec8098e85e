(** The compile service's wire format (DESIGN §14): one JSON object per
    line, requests in and responses out.

    A request line looks like

    {v
    {"id":1, "op":"simulate", "bench":"mcf", "mode":"C"}
    v}

    with optional fields [source] (inline program text, instead of
    [bench]), [input] (an int array overriding the benchmark's reference
    input), [threshold], [sync_sched], [tick] (admission tick; defaults
    to arrival order), [deadline_s] (per-request deadline override) and
    [fault] (a {!Faults.Servefault} or {!Faults.Fault} catalog name to
    inject).  Blank lines and lines starting with [#] are skipped.

    Responses preserve request order and carry a typed [status]
    ([ok]/[degraded]/[shed]/[deadline]/[error]), the cache disposition
    ([hit]/[miss]/[stale]/[none]), the attempt count, and either the
    op's [result] object or an [error_class] + [error] pair. *)

type op = Compile | Simulate | Profile

type t = {
  rq_id : int;
  rq_op : op;
  rq_bench : string option;   (* exactly one of rq_bench / rq_source *)
  rq_source : string option;
  rq_input : int list option; (* None = benchmark reference input *)
  rq_mode : string;           (* a label of Tls.Config.modes; default C *)
  rq_threshold : float;       (* default Tlscore.Pipeline.default_threshold *)
  rq_sync_sched : bool;
  rq_tick : int option;       (* admission tick; default arrival index *)
  rq_deadline_s : float option;
  rq_fault : string option;
}

val op_name : op -> string

(** Parse one line: [Ok None] for a blank or [#]-comment line, [Error]
    with a self-contained message (including [lineno]) otherwise. *)
val parse_line : lineno:int -> string -> (t option, string) result

(** Parse a whole request document (JSONL).  All malformed lines are
    reported, not just the first. *)
val parse_all : string -> (t list, string list) result

(** {2 Responses} *)

type status = Sok | Sdegraded | Sshed | Sdeadline | Serror

(** How the cache participated: [Chit]/[Cmiss] on the exact key,
    [Cstale] when a last-known-good artifact was served degraded,
    [Cnone] when the cache was off or never consulted (shed requests). *)
type cache_disp = Chit | Cmiss | Cstale | Cnone

type payload =
  | Result of Harness.Json.t
  | Failure of { err_class : string; err_msg : string }

type response = {
  rs_id : int;
  rs_status : status;
  rs_cache : cache_disp;
  rs_attempts : int;          (* 0 for shed requests *)
  rs_wall_ns : int option;    (* None under --no-timing *)
  rs_payload : payload;
}

val status_name : status -> string
val cache_name : cache_disp -> string

(** One compact JSON line (no trailing newline), deterministic key
    order. *)
val response_line : response -> string

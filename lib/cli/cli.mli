(** Command-line plumbing shared by [mrvcc] and [experiments]: one
    validation path for numeric flags and one usage-error exit code.

    A numeric flag is range-checked when it is parsed, so an
    out-of-range value is a usage error (exit 2) and is never clamped
    or carried into a crash later. *)

(** [int_at_least n] accepts a decimal integer [>= n]. *)
val int_at_least : int -> int Cmdliner.Arg.conv

(** Accepts a number [> 0] (so not [0], a negative, or [nan]). *)
val positive_float : float Cmdliner.Arg.conv

(** Accepts a number in [[0, 1]] (so not [nan]). *)
val fraction : float Cmdliner.Arg.conv

(** Accepts one of the table's names exactly; unlike [Cmdliner.Arg.enum],
    never an abbreviation ([mc] is not [mcf]). *)
val exact : (string * 'a) list -> 'a Cmdliner.Arg.conv

(** Accepts [ITEM[,ITEM...]], each item trimmed and then parsed; unlike
    [Cmdliner.Arg.list], an empty item is parsed (so [""] is no empty
    list), never skipped. *)
val list : 'a Cmdliner.Arg.conv -> 'a list Cmdliner.Arg.conv

(** [eval ?argv cmd] runs [cmd] like [Cmdliner.Cmd.eval] and returns its
    exit code and the text to write to stderr.  A command-line error
    (unknown command or flag, out-of-range value, ...) comes back as
    exit 2, the documented usage-error code, with only the one-line
    message: Cmdliner alone would add a usage line and a --help hint and
    exit 124. *)
val eval : ?argv:string array -> unit Cmdliner.Cmd.t -> int * string

open Cmdliner

let checked_conv ~what of_string ok pp =
  Arg.conv
    ( (fun s ->
        match of_string s with
        | Some v when ok v -> Ok v
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))),
      pp )

let int_at_least n =
  checked_conv
    ~what:(Printf.sprintf "an integer >= %d" n)
    int_of_string_opt
    (fun v -> v >= n)
    Format.pp_print_int

let positive_float =
  checked_conv ~what:"a number > 0" float_of_string_opt
    (fun v -> v > 0.0)
    Format.pp_print_float

let fraction =
  checked_conv ~what:"a number in [0, 1]" float_of_string_opt
    (fun v -> v >= 0.0 && v <= 1.0)
    Format.pp_print_float

let exact table =
  checked_conv
    ~what:("one of " ^ String.concat ", " (List.map fst table))
    (fun s -> List.assoc_opt s table)
    (fun _ -> true)
    (fun ppf v ->
      Format.pp_print_string ppf (fst (List.find (fun (_, x) -> x = v) table)))

let list item =
  let rec items = function
    | [] -> Ok []
    | s :: rest ->
      Result.bind (Arg.conv_parser item (String.trim s)) (fun v ->
          Result.map (List.cons v) (items rest))
  in
  Arg.conv
    ( (fun s -> items (String.split_on_char ',' s)),
      Format.(pp_print_list ~pp_sep:(fun ppf () -> pp_print_char ppf ','))
        (Arg.conv_printer item) )

let eval ?argv cmd =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err 10_000;
  let code = Cmd.eval ?argv ~err cmd in
  Format.pp_print_flush err ();
  let text = Buffer.contents buf in
  if code = Cmd.Exit.cli_error then
    (2, List.hd (String.split_on_char '\n' text) ^ "\n")
  else (code, text)

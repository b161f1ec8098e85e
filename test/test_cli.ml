(* Command-line plumbing shared by mrvcc and experiments (lib/cli): the
   range-checking converters reject out-of-range numbers at parse time,
   and Cli.eval turns every command-line error into exit 2 with a
   one-line message while leaving other exit codes alone.  The @cli
   alias drives the real binaries and checks exit codes only; these
   cases pin the parse results and the message shape. *)

open Cmdliner

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let parse conv s = Arg.conv_parser conv s

let accepts label conv s expected =
  match parse conv s with
  | Ok v -> check_int label expected v
  | Error (`Msg m) -> Alcotest.failf "%s: %S rejected: %s" label s m

let rejects label conv s =
  match parse conv s with
  | Ok _ -> Alcotest.failf "%s: %S accepted" label s
  | Error (`Msg _) -> ()

let accepts_float ?(conv = Cli.positive_float) label s expected =
  match parse conv s with
  | Ok v -> Alcotest.(check (float 0.0)) label expected v
  | Error (`Msg m) -> Alcotest.failf "%s: %S rejected: %s" label s m

(* ------------------------------------------------------------------ *)
(* Converters                                                          *)
(* ------------------------------------------------------------------ *)

let int_accepts_bound_and_above () =
  accepts "jobs 1" (Cli.int_at_least 1) "1" 1;
  accepts "jobs 8" (Cli.int_at_least 1) "8" 8;
  accepts "fuzz 0" (Cli.int_at_least 0) "0" 0;
  accepts "retries 3" (Cli.int_at_least 0) "3" 3

let int_rejects_below_bound () =
  rejects "jobs 0" (Cli.int_at_least 1) "0";
  rejects "jobs -3" (Cli.int_at_least 1) "-3";
  rejects "fuzz -3" (Cli.int_at_least 0) "-3";
  rejects "retries -2" (Cli.int_at_least 0) "-2"

let int_rejects_non_integers () =
  List.iter
    (fun s -> rejects "not an integer" (Cli.int_at_least 0) s)
    [ "x"; ""; "1.5"; "2x" ]

let int_message_names_value_and_bound () =
  match parse (Cli.int_at_least 1) "0" with
  | Ok _ -> Alcotest.fail "0 accepted as >= 1"
  | Error (`Msg m) ->
    check_string "message" "invalid value '0', expected an integer >= 1" m

let float_accepts_positive () =
  accepts_float "timeout 0.05" "0.05" 0.05;
  accepts_float "timeout 2" "2" 2.0

let float_rejects_zero_negative_nan () =
  List.iter
    (fun s -> rejects "not > 0" Cli.positive_float s)
    [ "0"; "0.0"; "-1"; "nan"; "x" ]

let fraction_accepts_unit_interval () =
  accepts_float ~conv:Cli.fraction "threshold 0" "0" 0.0;
  accepts_float ~conv:Cli.fraction "threshold 0.05" "0.05" 0.05;
  accepts_float ~conv:Cli.fraction "threshold 1" "1" 1.0

let fraction_rejects_outside_and_nan () =
  List.iter
    (fun s -> rejects "not in [0, 1]" Cli.fraction s)
    [ "-0.1"; "1.5"; "nan"; "x" ]

(* Cmdliner's Arg.enum takes "par" for parser, and its Arg.list skips
   empty items, so "" would be an empty matrix that runs nothing. *)
let names_exact_and_no_empty_items () =
  let names = Cli.exact [ ("mcf", 1); ("mcf2", 2); ("parser", 3) ] in
  accepts "mcf" names "mcf" 1;
  accepts "parser" names "parser" 3;
  List.iter (rejects "not a whole name" names) [ "par"; "MCF"; ""; "mcf," ];
  (match parse (Cli.list names) " parser, mcf2" with
  | Ok v -> Alcotest.(check (list int)) "trimmed items" [ 3; 2 ] v
  | Error (`Msg m) -> Alcotest.fail m);
  List.iter (rejects "empty item" (Cli.list Arg.int)) [ ""; ","; "1,,2"; "1," ]

(* ------------------------------------------------------------------ *)
(* Cli.eval                                                            *)
(* ------------------------------------------------------------------ *)

(* A one-flag command like the binaries': [--jobs] >= 1, recording what
   the term saw. *)
let jobs_cmd seen =
  let jobs =
    Arg.(value & opt (Cli.int_at_least 1) 1 & info [ "jobs" ] ~docv:"N")
  in
  Cmd.v (Cmd.info "t") Term.(const (fun j -> seen := Some j) $ jobs)

let usage_error argv needle =
  let seen = ref None in
  let code, text = Cli.eval ~argv (jobs_cmd seen) in
  check_int "exit code" 2 code;
  check_bool "term not run" true (!seen = None);
  check_bool "one line" true
    (String.index_opt text '\n' = Some (String.length text - 1));
  let contains =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text
      && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  check_bool (Printf.sprintf "%S mentions %S" text needle) true contains

let out_of_range_exits_2 () = usage_error [| "t"; "--jobs"; "0" |] "'0'"

let negative_after_equals_exits_2 () =
  usage_error [| "t"; "--jobs=-3" |] "'-3'"

let unknown_flag_exits_2 () = usage_error [| "t"; "--bogus" |] "--bogus"
let missing_value_exits_2 () = usage_error [| "t"; "--jobs" |] "--jobs"

(* Two subcommands, each with only its own flag, like mrvcc's: a flag of
   one is unknown to the other, and a parse error runs neither term. *)
let foreign_flag_exits_2 () =
  let ran = ref [] in
  let sub name only =
    let seen = Arg.value (Arg.flag (Arg.info [ only ])) in
    Cmd.v (Cmd.info name)
      (Term.app (Term.const (fun _ -> ran := name :: !ran)) seen)
  in
  let cmd = Cmd.group (Cmd.info "t") [ sub "a" "only-a"; sub "b" "only-b" ] in
  let code, text = Cli.eval ~argv:[| "t"; "a"; "--only-b" |] cmd in
  check_int "exit code" 2 code;
  check_bool "one line" true
    (String.index_opt text '\n' = Some (String.length text - 1));
  check_bool "neither term ran" true (!ran = []);
  let code, _ = Cli.eval ~argv:[| "t"; "b"; "--only-b" |] cmd in
  check_int "its own flag" 0 code;
  check_bool "only b ran" true (!ran = [ "b" ])

let valid_run_exits_0_silently () =
  let seen = ref None in
  let code, text = Cli.eval ~argv:[| "t"; "--jobs"; "4" |] (jobs_cmd seen) in
  check_int "exit code" 0 code;
  check_string "nothing on stderr" "" text;
  check_bool "term saw --jobs 4" true (!seen = Some 4)

(* Only command-line errors become 2: an exception escaping the term is
   Cmdliner's internal error (125) with its full report, so a crash is
   never mistaken for a usage error. *)
let crash_is_not_a_usage_error () =
  let cmd =
    Cmd.v (Cmd.info "t") Term.(const (fun () -> failwith "boom") $ const ())
  in
  let code, text = Cli.eval ~argv:[| "t" |] cmd in
  check_int "exit code" Cmd.Exit.internal_error code;
  check_bool "report kept" true (String.length text > 0)

let () =
  Alcotest.run "cli"
    [
      ( "converters",
        [
          Alcotest.test_case "int accepts the bound and above" `Quick
            int_accepts_bound_and_above;
          Alcotest.test_case "int rejects below the bound" `Quick
            int_rejects_below_bound;
          Alcotest.test_case "int rejects non-integers" `Quick
            int_rejects_non_integers;
          Alcotest.test_case "message names value and bound" `Quick
            int_message_names_value_and_bound;
          Alcotest.test_case "float accepts positive numbers" `Quick
            float_accepts_positive;
          Alcotest.test_case "float rejects zero, negatives, nan" `Quick
            float_rejects_zero_negative_nan;
          Alcotest.test_case "fraction accepts [0, 1]" `Quick
            fraction_accepts_unit_interval;
          Alcotest.test_case "fraction rejects outside [0, 1] and nan" `Quick
            fraction_rejects_outside_and_nan;
          Alcotest.test_case "exact names, no empty list items" `Quick
            names_exact_and_no_empty_items;
        ] );
      ( "eval",
        [
          Alcotest.test_case "out-of-range value exits 2 on one line" `Quick
            out_of_range_exits_2;
          Alcotest.test_case "negative after = exits 2 on one line" `Quick
            negative_after_equals_exits_2;
          Alcotest.test_case "unknown flag exits 2 on one line" `Quick
            unknown_flag_exits_2;
          Alcotest.test_case "missing value exits 2 on one line" `Quick
            missing_value_exits_2;
          Alcotest.test_case "valid run exits 0 silently" `Quick
            valid_run_exits_0_silently;
          Alcotest.test_case "a crash is not a usage error" `Quick
            crash_is_not_a_usage_error;
          Alcotest.test_case "another command's flag exits 2 on one line"
            `Quick foreign_flag_exits_2;
        ] );
    ]

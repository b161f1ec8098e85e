(* IR tests: layout, lowering (validated by executing lowered programs),
   instruction metadata, pretty printer. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run_src ?(input = [||]) src =
  let prog = Ir.Lower.compile_source src in
  let code = Runtime.Code.of_prog prog in
  let mem = Runtime.Memory.create () in
  Runtime.Thread.run_sequential code ~input mem

let check_output name src expected =
  Alcotest.(check (list int)) name expected (run_src src)

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

let layout_offsets () =
  let tp =
    Lang.Sema.check_source
      "struct s { int a; int b; s* next; } s g; s arr[4]; int x = 7; void \
       main() {}"
  in
  let layout = Ir.Layout.build tp in
  check_int "struct size" 3 (Ir.Layout.sizeof layout (Lang.Ast.Tstruct "s"));
  check_int "field a" 0 (Ir.Layout.field_offset layout "s" "a");
  check_int "field next" 2 (Ir.Layout.field_offset layout "s" "next");
  let base = Ir.Layout.globals_base in
  check_int "g addr" base (Ir.Layout.global_addr layout "g");
  check_int "arr addr" (base + 3) (Ir.Layout.global_addr layout "arr");
  check_int "x addr" (base + 3 + 12) (Ir.Layout.global_addr layout "x");
  check_int "extent" 16 (Ir.Layout.globals_extent layout);
  check_bool "init" true
    (List.mem (base + 15, 7) (Ir.Layout.initial_stores layout));
  Alcotest.(check string) "describe" "arr+5"
    (Ir.Layout.describe_addr layout (base + 8))

(* ------------------------------------------------------------------ *)
(* Lowering, validated by execution                                    *)
(* ------------------------------------------------------------------ *)

let lower_arith () =
  check_output "arith"
    "void main() { print(2 + 3 * 4); print(10 / 3); print(10 % 3); print(1 \
     << 4); print(-7 >> 1); print(6 & 3); print(6 | 3); print(6 ^ 3); }"
    [ 14; 3; 1; 16; -4; 2; 7; 5 ]

let lower_compare () =
  check_output "compare"
    "void main() { print(1 < 2); print(2 <= 1); print(3 == 3); print(3 != \
     3); print(2 > 1); print(1 >= 2); }"
    [ 1; 0; 1; 0; 1; 0 ]

let lower_short_circuit () =
  (* Side effects prove evaluation order: the right operand must not run
     when the left decides. *)
  check_output "short circuit"
    "int calls = 0;\n\
     int bump(int v) { calls = calls + 1; return v; }\n\
     void main() {\n\
    \  print(0 && bump(1)); print(calls);\n\
    \  print(1 || bump(1)); print(calls);\n\
    \  print(1 && bump(2)); print(calls);\n\
    \  print(0 || bump(0)); print(calls);\n\
     }"
    [ 0; 0; 1; 0; 1; 1; 0; 2 ]

let lower_control () =
  check_output "loops and branches"
    "void main() {\n\
    \  int i; int acc;\n\
    \  acc = 0;\n\
    \  for (i = 0; i < 10; i = i + 1) {\n\
    \    if (i == 3) continue;\n\
    \    if (i == 7) break;\n\
    \    acc = acc + i;\n\
    \  }\n\
    \  print(acc);\n\
    \  while (acc > 10) acc = acc - 10;\n\
    \  print(acc);\n\
    \  do { acc = acc - 1; } while (acc > 0);\n\
    \  print(acc);\n\
     }"
    [ 18; 8; 0 ]

let lower_pointers () =
  check_output "pointer chase"
    "struct node { int v; node* next; }\n\
     node pool[3];\n\
     void main() {\n\
    \  node* p;\n\
    \  pool[0].v = 10; pool[0].next = &pool[1];\n\
    \  pool[1].v = 20; pool[1].next = &pool[2];\n\
    \  pool[2].v = 30; pool[2].next = null;\n\
    \  p = &pool[0];\n\
    \  while (p != null) { print(p->v); p = p->next; }\n\
     }"
    [ 10; 20; 30 ]

let lower_pointer_arith () =
  check_output "scaled pointer arithmetic"
    "struct s { int a; int b; }\n\
     s arr[3];\n\
     int flat[6];\n\
     void main() {\n\
    \  s* p;\n\
    \  int* q;\n\
    \  arr[0].a = 1; arr[1].a = 2; arr[2].a = 3;\n\
    \  p = &arr[0];\n\
    \  p = p + 2;            // skips 2*2 words\n\
    \  print(p->a);\n\
    \  q = flat;\n\
    \  *(q + 3) = 42;\n\
    \  print(flat[3]);\n\
    \  print(*(3 + q));\n\
     }"
    [ 3; 42; 42 ]

let lower_calls () =
  check_output "calls and recursion"
    "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
     void tell(int x) { print(x); }\n\
     void main() { tell(fib(10)); }"
    [ 55 ]

let lower_globals () =
  check_output "global init and updates"
    "int g = 5;\n\
     int h;\n\
     void bump() { g = g + 1; h = h + g; }\n\
     void main() { bump(); bump(); print(g); print(h); }"
    [ 7; 13 ]

let lower_input () =
  Alcotest.(check (list int)) "input"
    [ 3; 30; 20; 0 ]
    (run_src ~input:[| 10; 20; 30 |]
       "void main() { print(inlen()); print(in(2)); print(in(1)); print(in(7)); }")

let lower_div_by_zero () =
  (* Division by zero is defined as 0 in the workload language. *)
  check_output "div by zero" "void main() { int z; z = 0; print(7 / z); print(7 % z); }" [ 0; 0 ]

let lower_uninitialized_locals () =
  check_output "locals read as zero" "void main() { int x; print(x); }" [ 0 ]

(* ------------------------------------------------------------------ *)
(* Instruction metadata                                                *)
(* ------------------------------------------------------------------ *)

let instr_defs_uses () =
  let i kind = { Ir.Instr.iid = 0; kind } in
  check_bool "bin"
    true
    (Ir.Instr.defs (i (Ir.Instr.Bin (Ir.Instr.Add, 3, Ir.Instr.Reg 1, Ir.Instr.Imm 2))) = [ 3 ]
    && Ir.Instr.uses (i (Ir.Instr.Bin (Ir.Instr.Add, 3, Ir.Instr.Reg 1, Ir.Instr.Imm 2))) = [ 1 ]);
  check_bool "store" true
    (Ir.Instr.defs (i (Ir.Instr.Store (Ir.Instr.Reg 1, Ir.Instr.Reg 2))) = []
    && Ir.Instr.uses (i (Ir.Instr.Store (Ir.Instr.Reg 1, Ir.Instr.Reg 2))) = [ 1; 2 ]);
  check_bool "call" true
    (Ir.Instr.defs (i (Ir.Instr.Call (Some 5, "f", [ Ir.Instr.Reg 1 ]))) = [ 5 ]);
  check_bool "wait defines" true
    (Ir.Instr.defs (i (Ir.Instr.Wait_scalar (0, 4))) = [ 4 ]);
  check_bool "memory access" true
    (Ir.Instr.is_memory_access (i (Ir.Instr.Sync_load (0, 1, Ir.Instr.Imm 0))));
  check_bool "successors" true
    (Ir.Instr.successors (Ir.Instr.Br (Ir.Instr.Imm 1, 2, 2)) = [ 2 ])

let unique_iids () =
  let prog =
    Ir.Lower.compile_source
      "int g; int f(int x) { return x * 2; } void main() { g = f(3); }"
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (_, f) ->
      Ir.Func.iter_instrs f (fun _ i ->
          check_bool "iid unique" false (Hashtbl.mem seen i.Ir.Instr.iid);
          Hashtbl.replace seen i.Ir.Instr.iid ()))
    prog.Ir.Prog.funcs

let lowering_deterministic () =
  let src = "int g; void main() { int i; for (i = 0; i < 3; i = i + 1) { g = g + i; } print(g); }" in
  let a = Ir.Pp.program (Ir.Lower.compile_source src) in
  let b = Ir.Pp.program (Ir.Lower.compile_source src) in
  Alcotest.(check string) "same IR text" a b

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let pp_smoke () =
  let prog = Ir.Lower.compile_source "void main() { print(1); }" in
  let text = Ir.Pp.program prog in
  check_bool "mentions main" true (contains ~needle:"main" text);
  check_bool "mentions print" true (contains ~needle:"print" text)

(* Property: integer expressions lower to code computing the same value as
   direct evaluation. *)
let arith_matches_eval =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then map (fun v -> `Lit (v mod 1000)) small_int
          else
            oneof
              [
                map (fun v -> `Lit (v mod 1000)) small_int;
                map2 (fun a b -> `Add (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> `Sub (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> `Mul (a, b)) (self (n / 2)) (self (n / 2));
                map2 (fun a b -> `Xor (a, b)) (self (n / 2)) (self (n / 2));
              ]))
  in
  let rec to_src = function
    | `Lit v -> string_of_int v
    | `Add (a, b) -> Printf.sprintf "(%s + %s)" (to_src a) (to_src b)
    | `Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_src a) (to_src b)
    | `Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_src a) (to_src b)
    | `Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (to_src a) (to_src b)
  in
  let rec eval = function
    | `Lit v -> v
    | `Add (a, b) -> eval a + eval b
    | `Sub (a, b) -> eval a - eval b
    | `Mul (a, b) -> eval a * eval b
    | `Xor (a, b) -> eval a lxor eval b
  in
  QCheck.Test.make ~name:"lowered arithmetic matches direct evaluation"
    ~count:100
    (QCheck.make ~print:to_src gen)
    (fun e ->
      run_src (Printf.sprintf "void main() { print(%s); }" (to_src e))
      = [ eval e ])

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let verify_catches_bad_register () =
  let f = Ir.Func.create "broken" [] in
  let entry = Ir.Func.add_block f in
  (Ir.Func.block f entry).Ir.Func.instrs <-
    [ { Ir.Instr.iid = 0; kind = Ir.Instr.Mov (7, Ir.Instr.Imm 1) } ];
  check_bool "invalid reg reported" true (Ir.Verify.func f <> [])

let verify_catches_bad_label () =
  let f = Ir.Func.create "broken" [] in
  let entry = Ir.Func.add_block f in
  (Ir.Func.block f entry).Ir.Func.term <- Ir.Instr.Jmp 9;
  check_bool "invalid label reported" true (Ir.Verify.func f <> [])

let has_violation sub errs =
  let contains s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  List.exists contains errs

let verify_catches_negative_channel () =
  let f = Ir.Func.create "broken" [] in
  let entry = Ir.Func.add_block f in
  (Ir.Func.block f entry).Ir.Func.instrs <-
    [ { Ir.Instr.iid = 0; kind = Ir.Instr.Wait_mem (-1) } ];
  check_bool "negative channel reported" true
    (has_violation "uses negative channel c-1" (Ir.Verify.func f))

let verify_catches_unallocated_channel () =
  let prog = Ir.Lower.compile_source "void main() { print(1); }" in
  let f = Ir.Prog.func prog "main" in
  (* No channels were ever allocated, so c5 is out of range. *)
  let b = Ir.Func.block f 0 in
  b.Ir.Func.instrs <-
    {
      Ir.Instr.iid = Ir.Prog.fresh_iid prog ~in_func:"main" ~what:"sig";
      kind = Ir.Instr.Signal_scalar (5, Ir.Instr.Imm 1);
    }
    :: b.Ir.Func.instrs;
  check_bool "unallocated channel reported" true
    (has_violation "uses unallocated channel c5" (Ir.Verify.program prog))

let verify_catches_groupless_sync_load () =
  let prog = Ir.Lower.compile_source "int g; void main() { print(g); }" in
  let f = Ir.Prog.func prog "main" in
  (* An allocated channel, but no region declares a memory group for it. *)
  let ch = Ir.Prog.fresh_channel prog in
  Array.iter
    (fun (b : Ir.Func.block) ->
      b.Ir.Func.instrs <-
        List.map
          (fun (i : Ir.Instr.t) ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Load (d, a) ->
              { i with Ir.Instr.kind = Ir.Instr.Sync_load (ch, d, a) }
            | _ -> i)
          b.Ir.Func.instrs)
    f.Ir.Func.blocks;
  check_bool "groupless checked load reported" true
    (has_violation "has no memory-sync group" (Ir.Verify.program prog))

let verify_catches_dangling_call () =
  let prog = Ir.Lower.compile_source "void main() { print(1); }" in
  let f = Ir.Prog.func prog "main" in
  let b = Ir.Func.block f 0 in
  b.Ir.Func.instrs <-
    b.Ir.Func.instrs
    @ [
        {
          Ir.Instr.iid = Ir.Prog.fresh_iid prog ~in_func:"main" ~what:"call";
          kind = Ir.Instr.Call (None, "nowhere", []);
        };
      ];
  check_bool "dangling call reported" true
    (has_violation "call to undefined function nowhere"
       (Ir.Verify.program prog))

let verify_catches_duplicate_iid () =
  let prog =
    Ir.Lower.compile_source "int g; void main() { g = 1; g = 2; print(g); }"
  in
  let f = Ir.Prog.func prog "main" in
  Array.iter
    (fun (b : Ir.Func.block) ->
      b.Ir.Func.instrs <-
        List.map (fun (i : Ir.Instr.t) -> { i with Ir.Instr.iid = 0 })
          b.Ir.Func.instrs)
    f.Ir.Func.blocks;
  check_bool "duplicate iid reported" true
    (has_violation "duplicate instruction id" (Ir.Verify.program prog))

let verify_accepts_lowered () =
  let prog =
    Ir.Lower.compile_source
      "int g; int f(int x) { return x + g; } void main() { g = f(2); print(g); }"
  in
  Alcotest.(check (list string)) "clean" [] (Ir.Verify.program prog)

let () =
  Alcotest.run "ir"
    [
      ("layout", [ Alcotest.test_case "offsets" `Quick layout_offsets ]);
      ( "lowering",
        [
          Alcotest.test_case "arith" `Quick lower_arith;
          Alcotest.test_case "compare" `Quick lower_compare;
          Alcotest.test_case "short circuit" `Quick lower_short_circuit;
          Alcotest.test_case "control" `Quick lower_control;
          Alcotest.test_case "pointers" `Quick lower_pointers;
          Alcotest.test_case "pointer arith" `Quick lower_pointer_arith;
          Alcotest.test_case "calls" `Quick lower_calls;
          Alcotest.test_case "globals" `Quick lower_globals;
          Alcotest.test_case "input" `Quick lower_input;
          Alcotest.test_case "div by zero" `Quick lower_div_by_zero;
          Alcotest.test_case "uninitialized locals" `Quick lower_uninitialized_locals;
          QCheck_alcotest.to_alcotest arith_matches_eval;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "bad register" `Quick verify_catches_bad_register;
          Alcotest.test_case "bad label" `Quick verify_catches_bad_label;
          Alcotest.test_case "negative channel" `Quick
            verify_catches_negative_channel;
          Alcotest.test_case "unallocated channel" `Quick
            verify_catches_unallocated_channel;
          Alcotest.test_case "groupless sync load" `Quick
            verify_catches_groupless_sync_load;
          Alcotest.test_case "dangling call" `Quick verify_catches_dangling_call;
          Alcotest.test_case "duplicate iid" `Quick verify_catches_duplicate_iid;
          Alcotest.test_case "accepts lowered" `Quick verify_accepts_lowered;
        ] );
      ( "metadata",
        [
          Alcotest.test_case "defs/uses" `Quick instr_defs_uses;
          Alcotest.test_case "unique iids" `Quick unique_iids;
          Alcotest.test_case "deterministic" `Quick lowering_deterministic;
          Alcotest.test_case "pp smoke" `Quick pp_smoke;
        ] );
    ]

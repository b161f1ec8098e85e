(* Compiler-pass tests: region selection, scalar synchronization placement,
   dependence grouping, procedure cloning, memory-sync insertion.

   Every transformation is additionally validated by running the
   transformed program sequentially (sync instructions are no-ops there)
   and comparing against the original output. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let seq_output prog input =
  let code = Runtime.Code.of_prog prog in
  let mem = Runtime.Memory.create () in
  Runtime.Thread.run_sequential code ~input mem

let check_semantics_preserved name src input (transformed : Ir.Prog.t) =
  let original = Ir.Lower.compile_source src in
  Alcotest.(check (list int))
    (name ^ ": transformed == original")
    (seq_output original input) (seq_output transformed input)

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

let selection_filters () =
  (* One fat parallel loop, one tiny loop (too few instrs/epoch), one
     accumulator-serialized loop. *)
  let src =
    "int a[512];\n\
     int work(int x) { int j; int t; t = x; for (j = 0; j < 9; j = j + 1) \
     { t = t + ((t << 1) ^ j) % 97; } return t; }\n\
     void main() {\n\
    \  int i; int s; s = 0;\n\
    \  for (i = 0; i < 100; i = i + 1) { a[i % 512] = work(i); }   // fat\n\
    \  for (i = 0; i < 100; i = i + 1) { s = s + 1; }              // tiny\n\
    \  for (i = 0; i < 100; i = i + 1) { s = s + work(i); }        // serialized\n\
    \  print(s);\n\
     }"
  in
  let prog = Ir.Lower.compile_source src in
  let profile = Profiler.Runner.run prog ~input:[||] ~watch:[] in
  let cands = Tlscore.Selection.candidates prog profile in
  let selected = Tlscore.Selection.select prog profile in
  (* Only the fat loop (and work's inner loop is nested within it) should
     be selected; the tiny and serialized loops must not. *)
  check_bool "at least one candidate" true (cands <> []);
  (* Only the fat loop is selected: the tiny and serialized loops fail
     their filters, and work's inner loop always runs nested inside
     another loop instance (where it would execute sequentially), so the
     nesting filter drops it too. *)
  Alcotest.(check (list string)) "only main's fat loop" [ "main" ]
    (List.map
       (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func)
       selected)

let selection_prefers_outer () =
  let src =
    "int a[256];\n\
     void main() {\n\
    \  int i; int j;\n\
    \  for (i = 0; i < 40; i = i + 1) {\n\
    \    for (j = 0; j < 40; j = j + 1) { a[(i * 40 + j) % 256] = i + j * \
     3; }\n\
    \  }\n\
    \  print(a[0]);\n\
     }"
  in
  let prog = Ir.Lower.compile_source src in
  let profile = Profiler.Runner.run prog ~input:[||] ~watch:[] in
  let selected = Tlscore.Selection.select prog profile in
  check_int "no overlapping selection" 1 (List.length selected)

let selection_rejects_mostly_nested () =
  (* A helper loop that only ever runs inside another loop's instances is
     not selected, even though it passes the size filters. *)
  let src =
    "int a[512];\n\
     int fill(int base) { int j; for (j = 0; j < 30; j = j + 1) { a[(base \
     + j * 7) % 512] = base + j + a[(base + j * 11) % 512] % 5; } return \
     a[base % 512]; }\n\
     void main() { int i; int s; s = 0; for (i = 0; i < 40; i = i + 1) { \
     a[i % 512] = fill(i * 3) + i; } print(a[0]); }"
  in
  let prog = Ir.Lower.compile_source src in
  let profile = Profiler.Runner.run prog ~input:[||] ~watch:[] in
  let selected = Tlscore.Selection.select prog profile in
  check_bool "outer selected" true
    (List.exists
       (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
       selected);
  check_bool "nested fill loop rejected" true
    (not
       (List.exists
          (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "fill")
          selected));
  (* Called from top level instead, the same loop is selectable. *)
  let src2 =
    "int a[512];\n\
     int fill(int base) { int j; for (j = 0; j < 300; j = j + 1) { a[(base \
     + j * 7) % 512] = base + j + a[(base + j * 11) % 512] % 5; } return \
     a[base % 512]; }\n\
     void main() { int s; s = fill(3); print(s); }"
  in
  let prog2 = Ir.Lower.compile_source src2 in
  let profile2 = Profiler.Runner.run prog2 ~input:[||] ~watch:[] in
  check_bool "top-level fill loop selected" true
    (List.exists
       (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "fill")
       (Tlscore.Selection.select prog2 profile2))

let selection_rejects_serialized () =
  let src =
    "int work(int x) { int j; int t; t = x; for (j = 0; j < 9; j = j + 1) \
     { t = t + ((t << 1) ^ j) % 97; } return t; }\n\
     void main() { int i; int s; s = 0; for (i = 0; i < 50; i = i + 1) { s \
     = s + work(i); } print(s); }"
  in
  let prog = Ir.Lower.compile_source src in
  let profile = Profiler.Runner.run prog ~input:[||] ~watch:[] in
  let key =
    List.find
      (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
      (Profiler.Runner.all_loops prog)
  in
  check_bool "serialized detected" true (Tlscore.Regions.scalar_serialized prog key);
  check_bool "not selected" true
    (not (List.mem key (Tlscore.Selection.select prog profile)))

(* A profile holding one loop's statistics, as the runner would record
   them. *)
let profile_of_stats ~total_instrs key ~instances ~iterations ~dyn_instrs =
  let profile =
    {
      Profiler.Profile.loops = Hashtbl.create 1;
      deps = Hashtbl.create 1;
      total_instrs;
      output = [];
    }
  in
  Hashtbl.replace profile.Profiler.Profile.loops key
    { Profiler.Profile.instances; iterations; dyn_instrs; nested_instances = 0 };
  profile

(* The three filters are the paper's fixed values (§3.1), each
   inclusive: 0.1% coverage, 1.5 epochs per instance, 15 instructions
   per epoch.  One loop sits exactly on all three boundaries, then just
   under one of them at a time. *)
let selection_paper_thresholds () =
  let prog =
    Ir.Lower.compile_source
      "int a[64]; void main() { int i; for (i = 0; i < 64; i = i + 1) { \
       a[i] = i * 3; } print(a[5]); }"
  in
  let key =
    List.find
      (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
      (Profiler.Runner.all_loops prog)
  in
  let candidate ~total_instrs ~instances ~iterations ~dyn_instrs =
    List.find_opt
      (fun (c : Tlscore.Selection.candidate) -> c.Tlscore.Selection.key = key)
      (Tlscore.Selection.candidates prog
         (profile_of_stats ~total_instrs key ~instances ~iterations ~dyn_instrs))
  in
  (* 45 instructions over 3 epochs of 2 instances, out of 45000. *)
  (match candidate ~total_instrs:45_000 ~instances:2 ~iterations:3 ~dyn_instrs:45 with
  | None -> Alcotest.fail "a loop on every boundary is a candidate"
  | Some c ->
    Alcotest.(check (float 0.0)) "coverage" 0.001 c.Tlscore.Selection.coverage;
    Alcotest.(check (float 0.0)) "epochs per instance" 1.5
      c.Tlscore.Selection.epochs_per_instance;
    Alcotest.(check (float 0.0)) "instructions per epoch" 15.0
      c.Tlscore.Selection.instrs_per_epoch;
    check_bool "selected" true
      (Tlscore.Selection.select prog
         (profile_of_stats ~total_instrs:45_000 key ~instances:2 ~iterations:3
            ~dyn_instrs:45)
      = [ key ]));
  check_bool "coverage under 0.1%" true
    (candidate ~total_instrs:45_001 ~instances:2 ~iterations:3 ~dyn_instrs:45
    = None);
  check_bool "under 1.5 epochs per instance" true
    (candidate ~total_instrs:45_000 ~instances:3 ~iterations:4 ~dyn_instrs:60
    = None);
  check_bool "under 15 instructions per epoch" true
    (candidate ~total_instrs:44_000 ~instances:2 ~iterations:3 ~dyn_instrs:44
    = None)

(* ------------------------------------------------------------------ *)
(* Scalar synchronization                                              *)
(* ------------------------------------------------------------------ *)

let region_for src =
  let prog = Ir.Lower.compile_source src in
  let key =
    List.find
      (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
      (Profiler.Runner.all_loops prog)
  in
  let region, infos = Tlscore.Regions.create prog key in
  (prog, region, infos)

let count_kind f pred =
  let n = ref 0 in
  Ir.Func.iter_instrs f (fun _ i -> if pred i.Ir.Instr.kind then incr n);
  !n

let scalar_hoisted_induction () =
  let src =
    "int a[64]; void main() { int i; for (i = 0; i < 10; i = i + 1) { a[i \
     % 64] = i * 2; } print(a[3]); }"
  in
  let prog, region, infos = region_for src in
  (match infos with
  | [ si ] ->
    check_bool "induction hoisted" true
      (si.Tlscore.Regions.si_placement = Tlscore.Regions.Hoisted)
  | _ -> Alcotest.fail "expected exactly one carried scalar");
  let f = Ir.Prog.func prog "main" in
  check_int "one wait" 1
    (count_kind f (function Ir.Instr.Wait_scalar _ -> true | _ -> false));
  check_int "one signal" 1
    (count_kind f (function Ir.Instr.Signal_scalar _ -> true | _ -> false));
  (* The signal must be in the header block (hoisted to the top). *)
  let header_block = Ir.Func.block f region.Ir.Region.header in
  check_bool "signal in header" true
    (List.exists
       (fun (i : Ir.Instr.t) ->
         match i.Ir.Instr.kind with Ir.Instr.Signal_scalar _ -> true | _ -> false)
       header_block.Ir.Func.instrs);
  check_semantics_preserved "hoisted" src [||] prog

let scalar_eager_placement () =
  (* s depends on a call result: not hoistable, but single def dominating
     the latch -> Eager (signal right after the def). *)
  let src =
    "int f(int x) { return x + 1; } int sink[16]; void main() { int i; int \
     s; s = 0; for (i = 0; i < 8; i = i + 1) { s = f(s); sink[i % 16] = s; \
     } print(s); }"
  in
  let prog, _region, infos = region_for src in
  let placements =
    List.map (fun si -> si.Tlscore.Regions.si_placement) infos
  in
  check_bool "has eager" true (List.mem Tlscore.Regions.Eager placements);
  check_semantics_preserved "eager" src [||] prog

let scalar_at_latch_placement () =
  (* Conditional definition: cannot hoist, cannot signal eagerly. *)
  let src =
    "int a[32]; void main() { int i; int last; last = 0; for (i = 0; i < 8; \
     i = i + 1) { if (i % 3 == 0) { last = i; } a[i % 32] = last; } \
     print(last); }"
  in
  let prog, _region, infos = region_for src in
  let placements = List.map (fun si -> si.Tlscore.Regions.si_placement) infos in
  check_bool "has at-latch" true (List.mem Tlscore.Regions.At_latch placements);
  check_semantics_preserved "at latch" src [||] prog

let scalar_channels_distinct () =
  let src =
    "int a[16]; void main() { int i; int j; j = 100; for (i = 0; i < 6; i \
     = i + 1) { a[i % 16] = j; j = j - 1; } print(j); }"
  in
  let _prog, region, infos = region_for src in
  check_int "two carried scalars" 2 (List.length infos);
  let chans =
    List.sort_uniq compare
      (List.map (fun si -> si.Tlscore.Regions.si_channel) infos)
  in
  check_int "distinct channels" 2 (List.length chans);
  check_int "region records them" 2
    (List.length region.Ir.Region.scalar_channels)

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)
(* ------------------------------------------------------------------ *)

let unroll_src =
  "int a[64];\n\
   void main() { int i; int s; for (i = 0; i < 37; i = i + 1) { a[i % 64] \
   = i * 3; } s = 0; for (i = 0; i < 64; i = i + 1) { s = s + a[i]; } \
   print(s); }"

let main_loop_key prog =
  List.find
    (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
    (Profiler.Runner.all_loops prog)

let unroll_preserves_semantics () =
  List.iter
    (fun factor ->
      let prog = Ir.Lower.compile_source unroll_src in
      let key = main_loop_key prog in
      let added = Tlscore.Unroll.apply prog key ~factor in
      check_bool "blocks added" true (added > 0);
      check_semantics_preserved
        (Printf.sprintf "unroll x%d" factor)
        unroll_src [||] prog)
    [ 2; 3; 4 ]

let unroll_amortizes_epochs () =
  (* Header arrivals drop by the unroll factor. *)
  let count_epochs prog =
    let key = main_loop_key prog in
    let p = Profiler.Runner.run prog ~input:[||] ~watch:[] in
    (Profiler.Profile.stats p key).Profiler.Profile.iterations
  in
  let base = count_epochs (Ir.Lower.compile_source unroll_src) in
  let prog = Ir.Lower.compile_source unroll_src in
  ignore (Tlscore.Unroll.apply prog (main_loop_key prog) ~factor:2);
  let unrolled = count_epochs prog in
  check_bool "about half the epochs" true
    (unrolled <= (base / 2) + 2 && unrolled >= (base / 2) - 2)

let unroll_keeps_early_exit () =
  let src =
    "int a[64]; void main() { int i; for (i = 0; i < 1000; i = i + 1) { \
     a[i % 64] = i; if (i == 13) { break; } } print(i); print(a[13]); }"
  in
  let prog = Ir.Lower.compile_source src in
  ignore (Tlscore.Unroll.apply prog (main_loop_key prog) ~factor:4);
  check_semantics_preserved "unrolled break" src [||] prog

let unroll_factor_suggestion () =
  (* A tiny-epoch loop suggests a factor > 1, a fat one suggests 1. *)
  let src =
    "int a[64];\n\
     int work(int x) { int j; int t; t = x; for (j = 0; j < 30; j = j + 1) \
     { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
     void main() { int i; for (i = 0; i < 30; i = i + 1) { a[i % 64] = i; } \
     for (i = 0; i < 30; i = i + 1) { a[i % 64] = work(i); } print(a[7]); }"
  in
  let prog = Ir.Lower.compile_source src in
  let p = Profiler.Runner.run prog ~input:[||] ~watch:[] in
  let keys =
    List.filter
      (fun (k : Profiler.Profile.loop_key) -> k.Profiler.Profile.lk_func = "main")
      (Profiler.Runner.all_loops prog)
  in
  let factors =
    List.map (fun k -> Tlscore.Unroll.suggested_factor p k) keys
  in
  check_bool "tiny loop unrolled" true (List.exists (fun f -> f >= 2) factors);
  check_bool "fat loop left alone" true (List.mem 1 factors)

(* An epoch of fewer than 40 instructions is unrolled by
   ceil(40 / size), at least 2 and at most 4. *)
let unroll_factor_thresholds () =
  let key = { Profiler.Profile.lk_func = "main"; lk_header = 1 } in
  let factor ~iterations ~dyn_instrs =
    Tlscore.Unroll.suggested_factor
      (profile_of_stats ~total_instrs:(max 1 dyn_instrs) key ~instances:1
         ~iterations ~dyn_instrs)
      key
  in
  check_int "never ran" 1 (factor ~iterations:0 ~dyn_instrs:0);
  check_int "40 per epoch: big enough" 1 (factor ~iterations:10 ~dyn_instrs:400);
  check_int "39 per epoch: at least 2" 2 (factor ~iterations:10 ~dyn_instrs:390);
  check_int "20 per epoch" 2 (factor ~iterations:10 ~dyn_instrs:200);
  check_int "14 per epoch" 3 (factor ~iterations:10 ~dyn_instrs:140);
  check_int "13 per epoch" 4 (factor ~iterations:10 ~dyn_instrs:130);
  check_int "10 per epoch" 4 (factor ~iterations:10 ~dyn_instrs:100);
  check_int "5 per epoch: at most 4" 4 (factor ~iterations:10 ~dyn_instrs:50)

let unroll_in_pipeline_absorbs_deps () =
  (* A distance-1 dependence between source iterations becomes partially
     intra-epoch after x2 unrolling: the dependence count per (unrolled)
     epoch stays frequent but the epoch count halves. *)
  let src =
    "int g; int a[64]; void main() { int i; for (i = 0; i < 40; i = i + 1) \
     { g = g + a[i % 64] + (a[(i * 3) % 64] >> 1) + 1; } print(g); }"
  in
  let with_u =
    Tlscore.Pipeline.compile ~source:src ~profile_input:[||]
      ~memory_sync:(Tlscore.Pipeline.Profiled { dep_input = [||]; threshold = 0.05 })
      ()
  in
  let without_u =
    Tlscore.Pipeline.compile ~unroll:false ~source:src ~profile_input:[||]
      ~memory_sync:(Tlscore.Pipeline.Profiled { dep_input = [||]; threshold = 0.05 })
      ()
  in
  let epochs c =
    match c.Tlscore.Pipeline.dep_profiles with
    | (_, dp) :: _ -> dp.Profiler.Profile.total_epochs
    | [] -> 0
  in
  check_bool "unroll applied" true
    (List.exists (fun (_, f) -> f > 1) with_u.Tlscore.Pipeline.unroll_factors);
  check_bool "fewer epochs after unrolling" true
    (epochs with_u < epochs without_u)

(* ------------------------------------------------------------------ *)
(* Grouping                                                            *)
(* ------------------------------------------------------------------ *)

let access iid ctx : Profiler.Profile.access = { Profiler.Profile.a_iid = iid; a_ctx = ctx }

let dep p c : Profiler.Profile.dep = { Profiler.Profile.producer = p; consumer = c }

let grouping_components () =
  (* store1 -> load1, store2 -> load1 (shared consumer: one group);
     store3 -> load2 separately. *)
  let deps =
    [
      dep (access 1 []) (access 10 []);
      dep (access 2 []) (access 10 []);
      dep (access 3 []) (access 11 []);
    ]
  in
  match Tlscore.Grouping.groups deps with
  | [ g1; g2 ] ->
    let sizes =
      List.sort compare
        [
          List.length g1.Tlscore.Grouping.g_loads + List.length g1.Tlscore.Grouping.g_stores;
          List.length g2.Tlscore.Grouping.g_loads + List.length g2.Tlscore.Grouping.g_stores;
        ]
    in
    Alcotest.(check (list int)) "group sizes" [ 2; 3 ] sizes
  | gs -> Alcotest.fail (Printf.sprintf "expected 2 groups, got %d" (List.length gs))

let grouping_context_distinguishes () =
  (* Same iid with different contexts are different vertices. *)
  let deps =
    [ dep (access 1 [ 5 ]) (access 2 []); dep (access 1 [ 6 ]) (access 3 []) ]
  in
  check_int "two groups" 2 (List.length (Tlscore.Grouping.groups deps))

let grouping_empty () =
  check_int "no deps, no groups" 0 (List.length (Tlscore.Grouping.groups []))

(* ------------------------------------------------------------------ *)
(* Cloning                                                             *)
(* ------------------------------------------------------------------ *)

let find_call_iids prog fname callee =
  let f = Ir.Prog.func prog fname in
  let acc = ref [] in
  Ir.Func.iter_instrs f (fun _ i ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Call (_, name, _) when String.equal name callee ->
        acc := i.Ir.Instr.iid :: !acc
      | _ -> ());
  List.rev !acc

let find_store_iid prog fname =
  let f = Ir.Prog.func prog fname in
  let acc = ref None in
  Ir.Func.iter_instrs f (fun _ i ->
      match i.Ir.Instr.kind with
      | Ir.Instr.Store (_, _) when !acc = None -> acc := Some i.Ir.Instr.iid
      | _ -> ());
  Option.get !acc

let cloning_src =
  "int g;\n\
   void bump() { g = g + 1; }\n\
   void via() { bump(); }\n\
   void main() { int i; for (i = 0; i < 4; i = i + 1) { via(); bump(); } \
   print(g); }"

let cloning_redirects_path () =
  let prog = Ir.Lower.compile_source cloning_src in
  let via_call = List.hd (find_call_iids prog "main" "via") in
  let bump_in_via = List.hd (find_call_iids prog "via" "bump") in
  let store_in_bump = find_store_iid prog "bump" in
  let acc = access store_in_bump [ via_call; bump_in_via ] in
  let result =
    Tlscore.Cloning.apply prog ~region_func:"main" ~accesses:[ acc ]
  in
  check_int "two clones (via, bump)" 2 result.Tlscore.Cloning.clones_created;
  (* main now calls a clone of via... *)
  check_int "original via no longer called" 0
    (List.length (find_call_iids prog "main" "via"));
  (* ...and the resolved access lives in a clone of bump. *)
  let clone_fname, new_iid = result.Tlscore.Cloning.resolve acc in
  check_bool "resolved in a clone" true (clone_fname <> "bump");
  check_bool "fresh iid" true (new_iid <> store_in_bump);
  (* The direct bump() call in main is untouched. *)
  check_int "direct bump call kept" 1
    (List.length (find_call_iids prog "main" "bump"));
  check_semantics_preserved "cloning" cloning_src [||] prog

let cloning_shares_prefixes () =
  let prog = Ir.Lower.compile_source cloning_src in
  let via_call = List.hd (find_call_iids prog "main" "via") in
  let bump_in_via = List.hd (find_call_iids prog "via" "bump") in
  let store_in_bump = find_store_iid prog "bump" in
  (* Two accesses sharing the [via_call] prefix: via cloned once. *)
  let a1 = access store_in_bump [ via_call; bump_in_via ] in
  let a2 = access (store_in_bump + 0) [ via_call; bump_in_via ] in
  let result =
    Tlscore.Cloning.apply prog ~region_func:"main" ~accesses:[ a1; a2 ]
  in
  check_int "shared prefix" 2 result.Tlscore.Cloning.clones_created

let cloning_empty_ctx_identity () =
  let prog = Ir.Lower.compile_source cloning_src in
  let store = find_store_iid prog "bump" in
  let acc = access store [] in
  let result = Tlscore.Cloning.apply prog ~region_func:"bump" ~accesses:[ acc ] in
  check_int "no clones" 0 result.Tlscore.Cloning.clones_created;
  let fname, iid = result.Tlscore.Cloning.resolve acc in
  Alcotest.(check string) "same function" "bump" fname;
  check_int "same iid" store iid

(* ------------------------------------------------------------------ *)
(* Memory synchronization                                              *)
(* ------------------------------------------------------------------ *)

let memsync_src =
  "int g;\n\
   int pad0;\n\
   int work(int x) { int j; int t; t = x; for (j = 0; j < 8; j = j + 1) { \
   t = t + ((t << 1) ^ j) % 53; } return t; }\n\
   int a[64];\n\
   void main() {\n\
  \  int i; int v;\n\
  \  for (i = 0; i < 30; i = i + 1) {\n\
  \    v = g;\n\
  \    a[i % 64] = work(v + i);\n\
  \    g = v + 1;\n\
  \  }\n\
  \  print(g);\n\
   }"

let compile_with_memsync ?(threshold = 0.05) src input =
  Tlscore.Pipeline.compile ~source:src ~profile_input:input
    ~memory_sync:(Tlscore.Pipeline.Profiled { dep_input = input; threshold })
    ()

let memsync_inserts_sync () =
  let c = compile_with_memsync memsync_src [||] in
  match c.Tlscore.Pipeline.mem_stats with
  | [ (_, stats) ] ->
    check_int "one group" 1 stats.Tlscore.Memsync.ms_groups;
    check_int "static group" 1 stats.Tlscore.Memsync.ms_static_groups;
    check_int "one sync load" 1 stats.Tlscore.Memsync.ms_sync_loads;
    check_bool "signals placed" true (stats.Tlscore.Memsync.ms_sync_stores >= 1);
    let f = Ir.Prog.func c.Tlscore.Pipeline.prog "main" in
    check_int "wait before load" 1
      (count_kind f (function Ir.Instr.Wait_mem _ -> true | _ -> false));
    check_int "sync load replaces load" 1
      (count_kind f (function Ir.Instr.Sync_load _ -> true | _ -> false));
    check_semantics_preserved "memsync" memsync_src [||] c.Tlscore.Pipeline.prog
  | l -> Alcotest.fail (Printf.sprintf "expected 1 region with stats, got %d" (List.length l))

let memsync_threshold_excludes () =
  (* A dependence in ~3% of epochs is ignored at the 5% threshold but
     synchronized at 1%. *)
  let src =
    "int g; int a[64];\n\
     int work(int x) { int j; int t; t = x; for (j = 0; j < 8; j = j + 1) \
     { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
     void main() { int i; for (i = 0; i < 100; i = i + 1) { a[i % 64] = \
     work(i); if (i % 33 == 32) { g = g + 1; } } print(g); }"
  in
  let at t =
    let c = compile_with_memsync ~threshold:t src [||] in
    List.fold_left
      (fun acc (_, s) -> acc + s.Tlscore.Memsync.ms_groups)
      0 c.Tlscore.Pipeline.mem_stats
  in
  check_int "ignored at 5%" 0 (at 0.05);
  check_bool "synchronized at 1%" true (at 0.01 >= 1)

let memsync_clones_along_path () =
  let src =
    "int g;\n\
     void bump() { g = g + 1; }\n\
     int work(int x) { int j; int t; t = x; for (j = 0; j < 8; j = j + 1) \
     { t = t + ((t << 1) ^ j) % 53; } return t; }\n\
     int a[64];\n\
     void main() { int i; for (i = 0; i < 20; i = i + 1) { a[i % 64] = \
     work(i); bump(); } print(g); }"
  in
  let c = compile_with_memsync src [||] in
  let stats = snd (List.hd c.Tlscore.Pipeline.mem_stats) in
  check_bool "cloned bump" true (stats.Tlscore.Memsync.ms_clones >= 1);
  check_bool "clone registered" true
    (List.exists
       (fun (name, _) ->
         String.length name > 5 && String.sub name 0 4 = "bump" && name <> "bump")
       c.Tlscore.Pipeline.prog.Ir.Prog.funcs);
  check_semantics_preserved "memsync cloning" src [||] c.Tlscore.Pipeline.prog

let memsync_null_elision () =
  (* Unconditional store on every path: latch nulls elided. *)
  let c = compile_with_memsync memsync_src [||] in
  let stats = snd (List.hd c.Tlscore.Pipeline.mem_stats) in
  check_bool "nulls elided or guarded" true
    (stats.Tlscore.Memsync.ms_null_signals = 0)

let memsync_region_groups_registered () =
  let c = compile_with_memsync memsync_src [||] in
  match c.Tlscore.Pipeline.prog.Ir.Prog.regions with
  | [ r ] ->
    check_int "one group" 1 (List.length r.Ir.Region.mem_groups);
    let mg = List.hd r.Ir.Region.mem_groups in
    check_int "one load" 1 (List.length mg.Ir.Region.mg_loads);
    check_int "one store" 1 (List.length mg.Ir.Region.mg_stores)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 region, got %d" (List.length rs))

let pipeline_u_has_no_memsync () =
  let u =
    Tlscore.Pipeline.compile ~source:memsync_src ~profile_input:[||]
      ~memory_sync:Tlscore.Pipeline.No_memory_sync ()
  in
  check_bool "no mem stats" true (u.Tlscore.Pipeline.mem_stats = []);
  let f = Ir.Prog.func u.Tlscore.Pipeline.prog "main" in
  check_int "no wait_mem" 0
    (count_kind f (function Ir.Instr.Wait_mem _ -> true | _ -> false));
  check_bool "scalar waits present" true
    (count_kind f (function Ir.Instr.Wait_scalar _ -> true | _ -> false) >= 1)

(* ------------------------------------------------------------------ *)
(* Sync scheduling in the pipeline                                     *)
(* ------------------------------------------------------------------ *)

(* Instruction kinds in program order, per function. *)
let flat_kinds (c : Tlscore.Pipeline.compiled) =
  List.concat_map
    (fun (name, (f : Ir.Func.t)) ->
      let acc = ref [] in
      Ir.Func.iter_instrs f (fun l i -> acc := (name, l, i.Ir.Instr.kind) :: !acc);
      List.rev !acc)
    (List.sort compare c.Tlscore.Pipeline.prog.Ir.Prog.funcs)

let sync_sched_off_is_identity () =
  (* With the flag off (the default), the artifact is exactly the
     unscheduled one and no motion is reported. *)
  let plain = compile_with_memsync memsync_src [||] in
  let off =
    Tlscore.Pipeline.compile ~sync_sched:false ~source:memsync_src
      ~profile_input:[||]
      ~memory_sync:
        (Tlscore.Pipeline.Profiled { dep_input = [||]; threshold = 0.05 })
      ()
  in
  check_bool "identical instruction streams" true
    (flat_kinds plain = flat_kinds off);
  check_int "no motion reported" 0
    (Analysis.Syncsched.total off.Tlscore.Pipeline.sched_stats)

let sync_sched_on_preserves_kinds_and_semantics () =
  (* Scheduling only reorders within this program (no post-call signal
     to inline): same instruction-kind multiset, same sequential
     semantics. *)
  let naive = compile_with_memsync memsync_src [||] in
  let sched =
    Tlscore.Pipeline.compile ~sync_sched:true ~source:memsync_src
      ~profile_input:[||]
      ~memory_sync:
        (Tlscore.Pipeline.Profiled { dep_input = [||]; threshold = 0.05 })
      ()
  in
  (* Ignore block labels: a unit may sink or hoist across blocks. *)
  let multiset c =
    List.sort compare (List.map (fun (n, _, k) -> (n, k)) (flat_kinds c))
  in
  check_bool "same kind multiset" true (multiset naive = multiset sched);
  check_semantics_preserved "sync-sched" memsync_src [||]
    sched.Tlscore.Pipeline.prog

let () =
  Alcotest.run "tlscore"
    [
      ( "selection",
        [
          Alcotest.test_case "filters" `Quick selection_filters;
          Alcotest.test_case "prefers outer" `Quick selection_prefers_outer;
          Alcotest.test_case "rejects serialized" `Quick selection_rejects_serialized;
          Alcotest.test_case "rejects mostly-nested" `Quick selection_rejects_mostly_nested;
          Alcotest.test_case "paper thresholds" `Quick selection_paper_thresholds;
        ] );
      ( "scalar sync",
        [
          Alcotest.test_case "hoisted induction" `Quick scalar_hoisted_induction;
          Alcotest.test_case "eager placement" `Quick scalar_eager_placement;
          Alcotest.test_case "at-latch placement" `Quick scalar_at_latch_placement;
          Alcotest.test_case "distinct channels" `Quick scalar_channels_distinct;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "preserves semantics" `Quick unroll_preserves_semantics;
          Alcotest.test_case "amortizes epochs" `Quick unroll_amortizes_epochs;
          Alcotest.test_case "early exit" `Quick unroll_keeps_early_exit;
          Alcotest.test_case "factor suggestion" `Quick unroll_factor_suggestion;
          Alcotest.test_case "factor thresholds" `Quick unroll_factor_thresholds;
          Alcotest.test_case "pipeline integration" `Quick unroll_in_pipeline_absorbs_deps;
        ] );
      ( "grouping",
        [
          Alcotest.test_case "components" `Quick grouping_components;
          Alcotest.test_case "context distinguishes" `Quick grouping_context_distinguishes;
          Alcotest.test_case "empty" `Quick grouping_empty;
        ] );
      ( "cloning",
        [
          Alcotest.test_case "redirects path" `Quick cloning_redirects_path;
          Alcotest.test_case "shares prefixes" `Quick cloning_shares_prefixes;
          Alcotest.test_case "empty ctx identity" `Quick cloning_empty_ctx_identity;
        ] );
      ( "memsync",
        [
          Alcotest.test_case "inserts sync" `Quick memsync_inserts_sync;
          Alcotest.test_case "threshold" `Quick memsync_threshold_excludes;
          Alcotest.test_case "clones along path" `Quick memsync_clones_along_path;
          Alcotest.test_case "null elision" `Quick memsync_null_elision;
          Alcotest.test_case "groups registered" `Quick memsync_region_groups_registered;
          Alcotest.test_case "U has no memsync" `Quick pipeline_u_has_no_memsync;
        ] );
      ( "sync sched",
        [
          Alcotest.test_case "off is identity" `Quick sync_sched_off_is_identity;
          Alcotest.test_case "on preserves kinds and semantics" `Quick
            sync_sched_on_preserves_kinds_and_semantics;
        ] );
    ]

(* The compile service (DESIGN §14): the content-addressed cache must
   survive crashes and corruption without ever serving bad bytes, and
   the service layer must turn every failure mode into a typed response
   — shed, deadline, degraded — never a hang or an untyped crash.

   The centerpiece is the kill-mid-cache-write test: a writer SIGKILLed
   between the temp write and the rename must leave the cache either
   empty or whole, a restart must sweep the debris, and the warm rerun
   that follows must be byte-identical to one that was never
   interrupted. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mrvcc-serve-test.%d.%d" (Unix.getpid ())
         (Random.int 1_000_000))
  in
  Serve.Cache.remove_tree dir;
  Fun.protect ~finally:(fun () -> Serve.Cache.remove_tree dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Atomic writes (cache entries and serve --out)                       *)
(* ------------------------------------------------------------------ *)

let atomic_write_roundtrip () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "responses.jsonl" in
      let tmp = path ^ ".tmp" in
      Serve.Cache.write_file_atomic ~tmp path "first\n";
      check_string "first write lands" "first\n" (read_file path);
      Serve.Cache.write_file_atomic ~tmp path "second\n";
      check_string "overwrite replaces" "second\n" (read_file path);
      Alcotest.(check (list string))
        "no temp files left" [ "responses.jsonl" ]
        (Array.to_list (Sys.readdir dir)))

(* Kill a writer between the temp write and the rename: the reader must
   still see the complete old contents (never a truncated or partial
   file), which is the whole point of write-then-rename.  Forks, so it
   runs before any test that spawns a domain. *)
let atomic_write_survives_kill () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "responses.jsonl" in
      let tmp = path ^ ".tmp" in
      Serve.Cache.write_file_atomic ~tmp path "old responses\n";
      match Unix.fork () with
      | 0 ->
        (* Child: start the new write but block before the rename until
           SIGKILL arrives.  _exit, not exit: no at_exit/flush side
           effects in the forked runtime. *)
        (try
           Serve.Cache.write_file_atomic ~tmp path
             ~before_rename:(fun () -> Unix.sleepf 30.0)
             "new responses\n"
         with _ -> ());
        Unix._exit 0
      | pid ->
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (Sys.file_exists tmp)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        check_bool "writer reached the temp file" true (Sys.file_exists tmp);
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        check_string "old contents survive a mid-write kill"
          "old responses\n" (read_file path))

(* A rename that fails (here: the target is a non-empty directory)
   raises and takes its temp file with it, so a failed write leaves no
   debris beside the target. *)
let atomic_write_failed_rename_cleans_up () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let target = Filename.concat dir "target" in
      Unix.mkdir target 0o755;
      write_file (Filename.concat target "keep") "kept\n";
      let tmp = Filename.concat dir "target.tmp" in
      let raised =
        match Serve.Cache.write_file_atomic ~tmp target "new\n" with
        | () -> false
        | exception Unix.Unix_error _ -> true
      in
      check_bool "failed rename raises" true raised;
      check_bool "temp file removed" false (Sys.file_exists tmp);
      check_string "target untouched" "kept\n"
        (read_file (Filename.concat target "keep")))

(* Cache stores go through the same writer: after a store and an
   overwrite no [tmp.*] file is left in the cache directory. *)
let store_leaves_no_temp_files () =
  with_temp_dir (fun dir ->
      let c, _ = Serve.Cache.open_dir ~dir in
      let key = Serve.Cache.fingerprint [ "op=simulate"; "src=..." ] in
      Serve.Cache.store c ~key "first";
      Serve.Cache.store c ~key "second";
      let strays =
        List.filter
          (fun n -> String.length n >= 4 && String.sub n 0 4 = "tmp.")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check (list string)) "no tmp.* files" [] strays;
      check_bool "entry written" true
        (Sys.file_exists (Serve.Cache.entry_path c ~key)))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_roundtrip () =
  with_temp_dir (fun dir ->
      let c, quarantined = Serve.Cache.open_dir ~dir in
      check_int "fresh cache has nothing to quarantine" 0
        (List.length quarantined);
      let key = Serve.Cache.fingerprint [ "op=simulate"; "src=..." ] in
      check_bool "miss before store" true (Serve.Cache.find c ~key = None);
      Serve.Cache.store c ~key "payload bytes";
      check_string "hit after store" "payload bytes"
        (Option.get (Serve.Cache.find c ~key));
      Serve.Cache.store c ~key "payload bytes v2";
      check_string "store overwrites" "payload bytes v2"
        (Option.get (Serve.Cache.find c ~key));
      let st = Serve.Cache.stats c in
      check_int "two hits" 2 st.Serve.Cache.cs_hits;
      check_int "one miss" 1 st.Serve.Cache.cs_misses;
      check_int "two stores" 2 st.Serve.Cache.cs_stores;
      check_int "nothing quarantined" 0 st.Serve.Cache.cs_quarantined)

let fingerprint_is_boundary_safe () =
  check_bool "length-prefixing keeps part boundaries" true
    (Serve.Cache.fingerprint [ "ab"; "c" ]
    <> Serve.Cache.fingerprint [ "a"; "bc" ])

let corrupt_entry_quarantined_on_read () =
  with_temp_dir (fun dir ->
      let c, _ = Serve.Cache.open_dir ~dir in
      let key = Serve.Cache.fingerprint [ "k" ] in
      Serve.Cache.store c ~key "good payload";
      (* Flip one payload byte behind the cache's back. *)
      let path = Serve.Cache.entry_path c ~key in
      let bytes = Bytes.of_string (read_file path) in
      let last = Bytes.length bytes - 1 in
      Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
      write_file path (Bytes.to_string bytes);
      check_bool "corrupt entry reads as a miss" true
        (Serve.Cache.find c ~key = None);
      check_int "and is counted quarantined" 1
        (Serve.Cache.stats c).Serve.Cache.cs_quarantined;
      check_bool "the poisoned bytes are kept for post-mortem" true
        (Sys.file_exists
           (Filename.concat (Filename.concat dir "quarantine")
              (Filename.basename path)));
      check_bool "the entry itself is gone" true (not (Sys.file_exists path)))

let startup_validation_quarantines () =
  with_temp_dir (fun dir ->
      let c, _ = Serve.Cache.open_dir ~dir in
      let good = Serve.Cache.fingerprint [ "good" ] in
      Serve.Cache.store c ~key:good "intact";
      (* A truncated entry and a stray temp file, as a crashed writer
         would leave them. *)
      write_file (Filename.concat dir "deadbeef.entry") "mrvcc-cache 1 tru";
      write_file (Filename.concat dir "tmp.999.deadbeef") "partial";
      let c2, quarantined = Serve.Cache.open_dir ~dir in
      Alcotest.(check (list string))
        "startup names the corrupt entry" [ "deadbeef.entry" ] quarantined;
      check_bool "stray temp swept" true
        (not (Sys.file_exists (Filename.concat dir "tmp.999.deadbeef")));
      check_string "intact entry still served" "intact"
        (Option.get (Serve.Cache.find c2 ~key:good)))

(* SIGKILL a writer between the temp write and the rename.  The store
   must be invisible (old state intact), the restart must sweep the
   temp file, and a subsequent store must produce bytes identical to a
   never-interrupted store. *)
let kill_mid_write_is_invisible () =
  with_temp_dir (fun dir ->
      let key = Serve.Cache.fingerprint [ "victim" ] in
      (* Reference bytes from an uninterrupted store in a sibling dir. *)
      let reference =
        let rdir = Filename.concat dir "reference" in
        let rc, _ = Serve.Cache.open_dir ~dir:rdir in
        Serve.Cache.store rc ~key "the artifact";
        read_file (Serve.Cache.entry_path rc ~key)
      in
      let vdir = Filename.concat dir "victim" in
      let c, _ = Serve.Cache.open_dir ~dir:vdir in
      (match Unix.fork () with
      | 0 ->
        (* Child: write the temp file, then block until SIGKILL. *)
        (try
           Serve.Cache.store c ~key
             ~before_rename:(fun () -> Unix.sleepf 30.0)
             "the artifact"
         with _ -> ());
        Unix._exit 0
      | pid ->
        let tmp =
          Filename.concat vdir (Printf.sprintf "tmp.%d.%s" pid key)
        in
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (Sys.file_exists tmp)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        check_bool "writer reached the temp file" true (Sys.file_exists tmp);
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid));
      (* Restart: the half-written store must be invisible and swept. *)
      let c2, quarantined = Serve.Cache.open_dir ~dir:vdir in
      check_int "nothing to quarantine (temp never became an entry)" 0
        (List.length quarantined);
      check_bool "no stray temp files survive the restart" true
        (Array.for_all
           (fun n -> not (String.length n >= 4 && String.sub n 0 4 = "tmp."))
           (Sys.readdir vdir));
      check_bool "the interrupted store is a miss" true
        (Serve.Cache.find c2 ~key = None);
      (* The recomputed store is byte-identical to the uninterrupted
         one: the crash left no residue in the artifact itself. *)
      Serve.Cache.store c2 ~key "the artifact";
      check_string "recovered entry is byte-identical" reference
        (read_file (Serve.Cache.entry_path c2 ~key)))

(* ------------------------------------------------------------------ *)
(* Service                                                             *)
(* ------------------------------------------------------------------ *)

(* A program small enough that a full compile+simulate round is cheap,
   but with a real parallelisable loop so the pipeline has work to do. *)
let tiny_source =
  "int a[64];\n\
   void main() {\n\
  \  int i; int s; s = 0;\n\
  \  for (i = 0; i < 40; i = i + 1) { a[i % 64] = a[i % 64] + i; s = s + i; }\n\
  \  print(s);\n\
   }"

let request ?(id = 1) ?tick ?deadline_s ?fault () =
  {
    Serve.Request.rq_id = id;
    rq_op = Serve.Request.Simulate;
    rq_bench = None;
    rq_source = Some tiny_source;
    rq_input = None;
    rq_mode = "C";
    rq_threshold = 0.05;
    rq_sync_sched = false;
    rq_tick = tick;
    rq_deadline_s = deadline_s;
    rq_fault = fault;
  }

let config dir =
  {
    Serve.Service.default_config with
    Serve.Service.sc_cache_dir = Some dir;
    sc_jobs = 1;
    sc_timing = false;  (* byte-identical response lines *)
  }

let run = Serve.Service.run

let lines outcome =
  List.map Serve.Request.response_line outcome.Serve.Service.so_responses

let overload_sheds_typed () =
  with_temp_dir (fun dir ->
      let cfg = { (config dir) with sc_queue = 1; sc_rate = 1 } in
      let reqs =
        List.map (fun id -> request ~id ~tick:0 ()) [ 1; 2; 3 ]
      in
      let o = run cfg reqs in
      let st = o.Serve.Service.so_stats in
      check_int "queue of 1 admits 1 of 3" 2 st.Serve.Service.st_shed;
      check_int "the admitted one completes" 1 st.Serve.Service.st_ok;
      check_int "shed maps to exit 8" 8 (Serve.Service.exit_code st);
      List.iter
        (fun r ->
          match r.Serve.Request.rs_payload with
          | Serve.Request.Failure { err_class; _ } ->
            check_string "shed responses are typed" "shed" err_class;
            check_int "shed responses record zero attempts" 0
              r.Serve.Request.rs_attempts
          | Serve.Request.Result _ -> Alcotest.fail "shed carried a result")
        (List.filter
           (fun r -> r.Serve.Request.rs_status = Serve.Request.Sshed)
           o.Serve.Service.so_responses))

let slow_job_hits_deadline () =
  with_temp_dir (fun dir ->
      let cfg = { (config dir) with sc_retries = 0 } in
      let o =
        run cfg [ request ~deadline_s:0.05 ~fault:"slow-job" () ]
      in
      let st = o.Serve.Service.so_stats in
      check_int "deadline response" 1 st.Serve.Service.st_deadline;
      check_int "deadline maps to exit 9" 9 (Serve.Service.exit_code st);
      match (List.hd o.Serve.Service.so_responses).Serve.Request.rs_payload with
      | Serve.Request.Failure { err_class; _ } ->
        check_string "typed as deadline" "deadline" err_class
      | Serve.Request.Result _ -> Alcotest.fail "deadline carried a result")

let transient_fault_absorbed_by_retry () =
  with_temp_dir (fun dir ->
      let o = run (config dir) [ request ~fault:"transient-io" () ] in
      let r = List.hd o.Serve.Service.so_responses in
      check_bool "retry absorbs the transient" true
        (r.Serve.Request.rs_status = Serve.Request.Sok);
      check_int "exactly two attempts" 2 r.Serve.Request.rs_attempts;
      check_bool "faulted artifacts are never cached" true
        (r.Serve.Request.rs_cache = Serve.Request.Cnone))

let persistent_fault_degrades_to_lkg () =
  with_temp_dir (fun dir ->
      let cfg = config dir in
      (* Prime: a healthy run stores the last-known-good artifact. *)
      let healthy = run cfg [ request () ] in
      let healthy_r = List.hd healthy.Serve.Service.so_responses in
      check_bool "healthy run computed" true
        (healthy_r.Serve.Request.rs_cache = Serve.Request.Cmiss);
      (* Every attempt faults: the service must serve the LKG artifact,
         marked degraded/stale — not error, and not fresh. *)
      let o = run cfg [ request ~fault:"stale-degrade" () ] in
      let r = List.hd o.Serve.Service.so_responses in
      check_bool "status degraded" true
        (r.Serve.Request.rs_status = Serve.Request.Sdegraded);
      check_bool "cache disposition stale" true
        (r.Serve.Request.rs_cache = Serve.Request.Cstale);
      (match (healthy_r.Serve.Request.rs_payload, r.Serve.Request.rs_payload) with
      | Serve.Request.Result a, Serve.Request.Result b ->
        check_string "LKG payload is the healthy artifact"
          (Harness.Json.to_string a) (Harness.Json.to_string b)
      | _ -> Alcotest.fail "expected results on both sides");
      check_int "degraded is still exit 0" 0
        (Serve.Service.exit_code o.Serve.Service.so_stats))

let without_lkg_fault_is_typed_error () =
  with_temp_dir (fun dir ->
      (* Cold cache: nothing to degrade to, so the persistent transient
         must surface as a typed error (exit 1), never a hang. *)
      let o = run (config dir) [ request ~fault:"stale-degrade" () ] in
      let r = List.hd o.Serve.Service.so_responses in
      check_bool "status error" true
        (r.Serve.Request.rs_status = Serve.Request.Serror);
      (match r.Serve.Request.rs_payload with
      | Serve.Request.Failure { err_class; _ } ->
        check_string "typed transient" "transient" err_class
      | Serve.Request.Result _ -> Alcotest.fail "expected a failure payload");
      check_int "error maps to exit 1" 1
        (Serve.Service.exit_code o.Serve.Service.so_stats))

(* The service-level acceptance test: kill a cache write mid-flight,
   restart, and demand the warm rerun is byte-identical to one whose
   cache was never interrupted.

   ORDERING CONSTRAINT: this test must run before any other test that
   calls [Service.run].  [Unix.fork] is forbidden for the rest of the
   process once any domain has ever been spawned, and the service's
   deadline machinery spawns domains — so the writer is forked and
   killed here first, and every service run happens after. *)
let service_recovers_from_killed_cache_write () =
  with_temp_dir (fun dir ->
      (* Distinct thresholds give the two requests distinct cache keys;
         identical requests would collapse to one entry. *)
      let reqs =
        [
          request ~id:1 ();
          { (request ~id:2 ()) with Serve.Request.rq_threshold = 0.10 };
        ]
      in
      (* Victim first: a writer dies between temp write and rename,
         before anything below spawns a domain. *)
      let vdir = Filename.concat dir "victim" in
      let c, _ = Serve.Cache.open_dir ~dir:vdir in
      let r1 = request ~id:1 () in
      let source, input =
        match Serve.Service.resolve r1 with
        | Ok si -> si
        | Error e -> Alcotest.fail e
      in
      let key = Serve.Service.exact_key r1 ~source ~input in
      (match Unix.fork () with
      | 0 ->
        (try
           Serve.Cache.store c ~key
             ~before_rename:(fun () -> Unix.sleepf 30.0)
             "never completed"
         with _ -> ());
        Unix._exit 0
      | pid ->
        let tmp = Filename.concat vdir (Printf.sprintf "tmp.%d.%s" pid key) in
        let deadline = Unix.gettimeofday () +. 5.0 in
        while (not (Sys.file_exists tmp)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.01
        done;
        check_bool "writer reached the temp file" true (Sys.file_exists tmp);
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid));
      (* Reference: cold then warm against a never-interrupted cache. *)
      let ref_dir = Filename.concat dir "reference" in
      ignore (run (config ref_dir) reqs);
      let reference_warm = lines (run (config ref_dir) reqs) in
      (* Cold run on the victim cache: the interrupted store must be
         invisible — a plain miss, recomputed and re-stored. *)
      let cold = run (config vdir) reqs in
      check_int "no quarantine needed (temp never became an entry)" 0
        (List.length cold.Serve.Service.so_stats.Serve.Service.st_quarantined);
      check_int "both requests recomputed" 2
        cold.Serve.Service.so_stats.Serve.Service.st_cache_misses;
      (* Warm rerun: byte-identical responses to the reference cache. *)
      let warm = run (config vdir) reqs in
      check_int "warm rerun is all hits" 2
        warm.Serve.Service.so_stats.Serve.Service.st_cache_hits;
      Alcotest.(check (list string))
        "warm rerun byte-identical to the uninterrupted cache"
        reference_warm (lines warm))

(* Same demand for detected corruption: a flipped byte in a committed
   entry must be quarantined at startup, recomputed, and the warm rerun
   again byte-identical. *)
let service_recovers_from_corrupt_entry () =
  with_temp_dir (fun dir ->
      let reqs = [ request ~id:1 () ] in
      let cfg = config dir in
      ignore (run cfg reqs);
      let warm_before = lines (run cfg reqs) in
      (* Corrupt the committed entry on disk. *)
      let r1 = request ~id:1 () in
      let source, input =
        match Serve.Service.resolve r1 with
        | Ok si -> si
        | Error e -> Alcotest.fail e
      in
      let key = Serve.Service.exact_key r1 ~source ~input in
      let c, _ = Serve.Cache.open_dir ~dir in
      let path = Serve.Cache.entry_path c ~key in
      let bytes = Bytes.of_string (read_file path) in
      let last = Bytes.length bytes - 1 in
      Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 1));
      write_file path (Bytes.to_string bytes);
      (* The next service run must detect it at startup, quarantine it,
         and recompute — then serve warm, byte-identical again. *)
      let recompute = run cfg reqs in
      check_int "startup quarantined the corrupt entry" 1
        (List.length
           recompute.Serve.Service.so_stats.Serve.Service.st_quarantined);
      check_int "request recomputed after the quarantine" 1
        recompute.Serve.Service.so_stats.Serve.Service.st_cache_misses;
      Alcotest.(check (list string))
        "warm rerun byte-identical after recovery" warm_before
        (lines (run cfg reqs)))

let bad_request_is_typed () =
  with_temp_dir (fun dir ->
      let o =
        run (config dir)
          [
            {
              (request ()) with
              Serve.Request.rq_source = None;
              rq_bench = Some "no-such-benchmark";
            };
          ]
      in
      let r = List.hd o.Serve.Service.so_responses in
      check_bool "status error" true
        (r.Serve.Request.rs_status = Serve.Request.Serror);
      match r.Serve.Request.rs_payload with
      | Serve.Request.Failure { err_class; _ } ->
        check_string "typed bad-request" "bad-request" err_class
      | Serve.Request.Result _ -> Alcotest.fail "expected a failure payload")

(* A request names only what differs from the defaults: mode C, the
   paper's 5% threshold as the pipeline owns it, no sync scheduling. *)
let request_defaults () =
  (match
     Serve.Request.parse_line ~lineno:1
       {|{"id":7,"op":"simulate","bench":"mcf"}|}
   with
  | Ok (Some r) ->
    check_int "id" 7 r.Serve.Request.rq_id;
    check_string "mode" "C" r.Serve.Request.rq_mode;
    Alcotest.(check (float 0.0)) "threshold"
      Tlscore.Pipeline.default_threshold r.Serve.Request.rq_threshold;
    Alcotest.(check (float 0.0)) "the paper's 5%" 0.05
      Tlscore.Pipeline.default_threshold;
    check_bool "sync sched off" false r.Serve.Request.rq_sync_sched
  | Ok None -> Alcotest.fail "request line read as blank"
  | Error msg -> Alcotest.fail msg);
  match
    Serve.Request.parse_line ~lineno:3
      {|{"id":8,"op":"simulate","bench":"mcf","threshold":1.5}|}
  with
  | Error msg ->
    let names_field =
      let n = String.length "\"threshold\"" in
      let rec at i =
        i + n <= String.length msg
        && (String.sub msg i n = "\"threshold\"" || at (i + 1))
      in
      at 0
    in
    check_bool "out-of-range threshold named" true names_field
  | Ok _ -> Alcotest.fail "threshold 1.5 accepted"

let () =
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "atomic-write",
        [
          Alcotest.test_case "write and overwrite, no strays" `Quick
            atomic_write_roundtrip;
          Alcotest.test_case "kill mid-write keeps the old file" `Quick
            atomic_write_survives_kill;
          Alcotest.test_case "failed rename removes the temp file" `Quick
            atomic_write_failed_rename_cleans_up;
          Alcotest.test_case "store leaves no temp files" `Quick
            store_leaves_no_temp_files;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/find roundtrip with stats" `Quick
            cache_roundtrip;
          Alcotest.test_case "fingerprint keeps part boundaries" `Quick
            fingerprint_is_boundary_safe;
          Alcotest.test_case "corrupt entry quarantined on read" `Quick
            corrupt_entry_quarantined_on_read;
          Alcotest.test_case "startup quarantines and sweeps" `Quick
            startup_validation_quarantines;
          Alcotest.test_case "kill mid-write leaves no trace" `Quick
            kill_mid_write_is_invisible;
        ] );
      ( "service",
        [
          (* Must stay first: see the ordering constraint on the test. *)
          Alcotest.test_case "killed cache write: warm rerun byte-identical"
            `Quick service_recovers_from_killed_cache_write;
          Alcotest.test_case "overload sheds with typed responses" `Quick
            overload_sheds_typed;
          Alcotest.test_case "slow job trips the deadline" `Quick
            slow_job_hits_deadline;
          Alcotest.test_case "transient fault absorbed by retry" `Quick
            transient_fault_absorbed_by_retry;
          Alcotest.test_case "persistent fault degrades to LKG" `Quick
            persistent_fault_degrades_to_lkg;
          Alcotest.test_case "no LKG means a typed error" `Quick
            without_lkg_fault_is_typed_error;
          Alcotest.test_case "corrupt entry: warm rerun byte-identical" `Quick
            service_recovers_from_corrupt_entry;
          Alcotest.test_case "bad request is typed" `Quick bad_request_is_typed;
        ] );
      ( "request",
        [ Alcotest.test_case "defaults" `Quick request_defaults ] );
    ]

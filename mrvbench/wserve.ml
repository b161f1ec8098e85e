(* serve: one op is one simulate request through [Serve.Service.run].  A
   single client submits documents of 25 requests; requests [2k] and
   [2k+1] share an admission tick, so pairs dispatch together.  Four in
   five are hits, spread by the seed over five keys warmed during set-up:
   a cache read.  Every fifth request misses: a bundled program at a
   threshold the run has not used yet, so compile, simulate and an
   fsync'd cache store.  A sweep misses on each bundled program once.
   Misses are five slots apart, so no two share a tick and the mix is the
   same for every seed. *)

open Serve

type prog = { name : string; reference : Inputs.reference }

let doc_size = 25

let request ~id ~name ~threshold =
  {
    Request.rq_id = id;
    rq_op = Request.Simulate;
    rq_bench = Some name;
    rq_source = None;
    rq_input = None;
    rq_mode = "C";
    rq_threshold = threshold;
    rq_sync_sched = false;
    rq_tick = Some (id / 2);
    rq_deadline_s = None;
    rq_fault = None;
  }

let setup ~track ~seed ~quick ~dir (r : Recorder.t) =
  let progs =
    List.map
      (fun (w : Workloads.Workload.t) ->
        {
          name = w.Workloads.Workload.name;
          reference =
            Inputs.run_sequential
              (Inputs.original_code w.source)
              ~input:w.ref_input;
        })
      (Inputs.bundled ~quick)
  in
  let config =
    {
      Service.default_config with
      Service.sc_cache_dir = Some dir;
      sc_queue = 64;
      sc_rate = Inputs.jobs;
      sc_jobs = Inputs.jobs;
      (* Latency is measured, never cut short by the deadline machinery. *)
      sc_deadline_s = 120.0;
    }
  in
  Cache.remove_tree dir;
  (* Warm the hit keys; a key's payload is what every later hit on it
     must return. *)
  let hot = Array.of_list (List.filteri (fun i _ -> i < 5) progs) in
  let stored = Hashtbl.create 16 in
  let warm =
    Service.run config
      (List.mapi
         (fun id p -> request ~id ~name:p.name ~threshold:Inputs.threshold)
         (Array.to_list hot))
  in
  List.iter2
    (fun p (rs : Request.response) ->
      match (rs.rs_status, rs.rs_payload) with
      | Request.Sok, Request.Result j -> Hashtbl.replace stored p.name j
      | _ -> failwith ("serve set-up: warming " ^ p.name ^ " failed"))
    (Array.to_list hot) warm.Service.so_responses;
  let rng = Support.Rng.of_int seed in
  let misses = ref 0 in
  (* A sweep misses on every program once, in a seeded order. *)
  let documents () =
    let order = Array.of_list (Inputs.shuffle ~seed:(Support.Rng.int rng 1_000_000) progs) in
    let n = Array.length order in
    let per_doc = doc_size / 5 in
    List.init ((n + per_doc - 1) / per_doc) (fun d ->
        let size = min doc_size (5 * (n - (d * per_doc))) in
        List.init size (fun id ->
            if id mod 5 = 4 then begin
              incr misses;
              let p = order.((d * per_doc) + (id / 5)) in
              ( p,
                `Miss,
                request ~id ~name:p.name
                  ~threshold:(Inputs.threshold +. (float_of_int !misses *. 1e-6)) )
            end
            else
              let p = hot.(Support.Rng.int rng (Array.length hot)) in
              (p, `Hit, request ~id ~name:p.name ~threshold:Inputs.threshold)))
  in
  let check (p, kind, _) (rs : Request.response) =
    match (rs.rs_status, rs.rs_cache, rs.rs_payload, kind) with
    | Request.Sok, Request.Chit, Request.Result j, `Hit ->
      if j = Hashtbl.find stored p.name then Ok ()
      else Error "hit payload differs from the miss that stored it"
    | Request.Sok, Request.Cmiss, Request.Result j, `Miss ->
      let output =
        match Harness.Json.field j "output" with
        | Some (Harness.Json.Jarr l) ->
          List.map (function Harness.Json.Jnum f -> int_of_float f | _ -> min_int) l
        | _ -> []
      in
      if output = p.reference.output then Ok ()
      else Error "miss output differs from the reference"
    | _ -> Error (Request.response_line rs)
  in
  let overheads = ref [] in
  let run_document doc =
    let reqs = List.map (fun (_, _, rq) -> rq) doc in
    match Recorder.timed r "document" (fun () -> Trace.span "serve.run" (fun () -> Service.run config reqs)) with
    | exception e ->
      List.iter (fun (p, _, _) -> Recorder.fail r p.name (Printexc.to_string e)) doc
    | o, doc_ns ->
      let st = o.Service.so_stats in
      let count key v = Recorder.count r key (float_of_int v) in
      count "serve.hits" st.st_cache_hits;
      count "serve.misses" st.st_cache_misses;
      (* 0 whenever every op passes its check, so result file only. *)
      count "serve.shed" st.st_shed;
      count "serve.degraded" st.st_degraded;
      (* Time the client waited beyond the slowest request of each
         dispatched pair: dispatch, pool spawn, cache open. *)
      let pairs = Hashtbl.create 16 in
      List.iter
        (fun (rs : Request.response) ->
          let tick = rs.rs_id / 2 and ns = Option.value rs.rs_wall_ns ~default:0 in
          Hashtbl.replace pairs tick
            (max ns (Option.value (Hashtbl.find_opt pairs tick) ~default:0)))
        o.so_responses;
      if r.traced then
        overheads :=
          float_of_int (doc_ns - Hashtbl.fold (fun _ ns acc -> acc + ns) pairs 0)
          :: !overheads;
      List.iter2
        (fun ((p, kind, _) as item) (rs : Request.response) ->
          let cls = (match kind with `Hit -> "hit " | `Miss -> "miss ") ^ p.name in
          match check item rs with
          | Ok () -> Recorder.sample r ~cls (Option.value rs.rs_wall_ns ~default:0)
          | Error msg -> Recorder.fail r cls msg)
        doc o.so_responses
  in
  let run_sweep () =
    List.iter run_document (documents ());
    if r.traced then
      ignore
        (Trace.span "probe" (fun () ->
             Trace.span "serve.open" (fun () -> Cache.open_dir ~dir)))
  in
  let latencies prefix =
    List.filter_map
      (fun (s : Recorder.sample) ->
        if (not s.traced) && String.starts_with ~prefix s.cls then
          Some (float_of_int s.ns)
        else None)
      r.Recorder.samples
  in
  let extras () =
    [
      Measure.metric "hit_p50_us" "us" (Measure.median (latencies "hit ") /. 1e3);
      Measure.metric "miss_p50_ms" "ms" (Measure.median (latencies "miss ") /. 1e6);
    ]
  in
  let layers () =
    let cnt = Recorder.count_of (Option.value r.traced_counts ~default:[]) in
    let exact name = Measure.metric ~exact:true name "count" (cnt name) in
    [
      exact "serve.hits";
      exact "serve.misses";
      Measure.metric ~exact:true "serve.hit_ratio" "fraction"
        (cnt "serve.hits" /. (cnt "serve.hits" +. cnt "serve.misses"));
      Measure.metric "serve.overhead_ms" "ms" (Measure.median !overheads /. 1e6);
      Measure.metric "serve.open_ms" "ms"
        (Measure.median (Trace.per_op_self track "serve.open") /. 1e6);
    ]
  in
  {
    Recorder.run_sweep;
    extras;
    layers;
    digest =
      (fun () ->
        Inputs.digest_of
          (Hashtbl.fold
             (fun name j acc -> (name ^ "=" ^ Harness.Json.to_string j) :: acc)
             stored []));
    teardown = (fun () -> Cache.remove_tree dir);
  }

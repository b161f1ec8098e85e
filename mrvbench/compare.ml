(* Compare two sets of mrvbench result files (a parent commit's runs and
   a change's, or two sets of one commit's runs).

     compare.exe --spec BENCHMARK.json BASE_DIR NEW_DIR
     compare.exe --spec BENCHMARK.json DIR

   Given one directory, it prints the spread of each end-to-end metric
   instead: (q3 - q1) / median over the runs, quartiles as Python's
   statistics.quantiles(n=4) computes them, beside the metric's bound.

   Each directory is searched recursively for result files
   (<workload>-seed<N>.json, traced-seed<N>.json); runs are paired in path
   order.  For every (workload, metric) it prints each side's median and
   quartiles, and for an end-to-end metric of the spec the fraction of
   pairs the new side wins (ties count for neither) and a verdict:

   - improved: wins in at least 9/10 of the pairs, and the medians differ
     by more than the base side's interquartile range;
   - unresolved: not improved, either side's spread (IQR / median) is
     wider than the bound, and not every new run beats every base run;
   - worse: the new median is worse than the base median by more than
     the bound;
   - unchanged: otherwise.

   Deterministic values (counts, the modelled speedup, digests) must be
   identical in every pair of runs, and both sides must have as many
   runs, or the verdict is worse.  Two sets that ran the same seeds in
   the same path order thus compare seed by seed.  Other
   metrics are reported without a verdict.  Exit code 1 when any verdict
   is worse, 2 on a usage or input error. *)

module Json = Harness.Json

type bound = { better_lower : bool; bound : float }

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let get what = function Ok v -> v | Error e -> die "%s: %s" what e

let parse_file path =
  match Json.parse_result (Measure.read_file path) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let read_spec path =
  let j = parse_file path in
  let e2e = get path (Json.as_arr "end_to_end" (Option.value (Json.field j "end_to_end") ~default:Json.Jnull)) in
  List.map
    (fun m ->
      let f key = Option.value (Json.field m key) ~default:Json.Jnull in
      ( get path (Json.as_str "name" (f "name")),
        {
          better_lower = get path (Json.as_str "better" (f "better")) = "lower";
          bound = get path (Json.as_num "bound" (f "bound"));
        } ))
    e2e

let rec result_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then result_files path
         else if Filename.check_suffix name ".json" && not (String.starts_with ~prefix:"trace-" name)
         then [ path ]
         else [])

(* (workload, metric) -> values in run order; exactness per metric. *)
type side = {
  values : (string * string, float list) Hashtbl.t;
  exact : (string * string, unit) Hashtbl.t;
  digests : (string * string, string list) Hashtbl.t;
  mutable keys : (string * string) list;
}

let load dir =
  let s = { values = Hashtbl.create 64; exact = Hashtbl.create 64; digests = Hashtbl.create 8; keys = [] } in
  let add tbl key v =
    if not (Hashtbl.mem s.values key || Hashtbl.mem s.digests key) then s.keys <- key :: s.keys;
    Hashtbl.replace tbl key (Option.value (Hashtbl.find_opt tbl key) ~default:[] @ [ v ])
  in
  let files =
    List.filter
      (fun path -> Json.field (parse_file path) "schema" = Some (Json.Jstr "mrvbench-1"))
      (result_files dir)
  in
  if files = [] then die "%s: no mrvbench result files" dir;
  List.iter
    (fun path ->
      let j = parse_file path in
      let traced = Json.field j "traced" = Some (Json.Jbool true) in
      let workload =
        if traced then "traced"
        else get path (Json.as_str "workload" (Option.get (Json.field j "workload")))
      in
      List.iter
        (fun section ->
          match Json.field j section with
          | Some (Json.Jobj ms) ->
            List.iter
              (fun (name, m) ->
                let key = (workload, name) in
                add s.values key (get path (Json.as_num name (Option.get (Json.field m "value"))));
                if Json.field m "exact" = Some (Json.Jbool true) then Hashtbl.replace s.exact key ())
              ms
          | _ -> ())
        [ "metrics"; "extra" ];
      match Json.field j "digests" with
      | Some (Json.Jobj ds) ->
        List.iter
          (fun (name, d) -> add s.digests (workload, "digest:" ^ name) (get path (Json.as_str name d)))
          ds
      | _ -> ())
    files;
  s.keys <- List.rev s.keys;
  s

let spread xs =
  let q1, q3 = Measure.quartiles xs in
  (q3 -. q1) /. Float.abs (Measure.median xs)

let verdict { better_lower; bound } base next =
  let better a b = if better_lower then a < b else a > b in
  let n = min (List.length base) (List.length next) in
  let ps = List.combine (List.filteri (fun i _ -> i < n) base) (List.filteri (fun i _ -> i < n) next) in
  let wins = List.length (List.filter (fun (b, n) -> better n b) ps) in
  let mb = Measure.median base and mn = Measure.median next in
  let q1, q3 = Measure.quartiles base in
  let worse_by = (if better_lower then mn -. mb else mb -. mn) /. Float.abs mb in
  let all_better = List.for_all (fun n -> List.for_all (fun b -> better n b) base) next in
  let v =
    if float_of_int wins >= 0.9 *. float_of_int n && better mn mb
       && Float.abs (mn -. mb) > q3 -. q1
    then "improved"
    else if (spread base > bound || spread next > bound) && not all_better then
      "unresolved"
    else if worse_by > bound then "worse"
    else "unchanged"
  in
  (Printf.sprintf "%d/%d" wins n, v)

let summary xs =
  let q1, q3 = Measure.quartiles xs in
  Printf.sprintf "%.5g [%.5g, %.5g]" (Measure.median xs) q1 q3

let spreads bounds dir =
  let runs = load dir in
  let rows =
    List.filter_map
      (fun ((workload, metric) as key) ->
        match (List.assoc_opt metric bounds, Hashtbl.find_opt runs.values key) with
        | Some bd, Some xs ->
          Some
            [ workload; metric; string_of_int (List.length xs); summary xs;
              Printf.sprintf "%.4f" (spread xs); Printf.sprintf "%.2f" bd.bound ]
        | _ -> None)
      runs.keys
  in
  print_endline
    (Support.Table.render
       ~header:[ "workload"; "metric"; "runs"; "median [q1, q3]"; "spread"; "bound" ]
       rows)

let compare_dirs bounds base_dir new_dir =
  let base = load base_dir and next = load new_dir in
  let worse = ref 0 in
  let pairwise_equal eq b n = List.compare_lengths b n = 0 && List.for_all2 eq b n in
  let rows =
    List.map
      (fun ((workload, metric) as key) ->
        let row b n wins v =
          if v = "worse" || v = "missing" then incr worse;
          [ workload; metric; b; n; wins; v ]
        in
        match Hashtbl.find_opt base.digests key with
        | Some b ->
          let n = Option.value (Hashtbl.find_opt next.digests key) ~default:[] in
          let show = function d :: _ -> String.sub d 0 (min 12 (String.length d)) | [] -> "-" in
          row (show b) (show n) "" (if pairwise_equal String.equal b n then "equal" else "worse")
        | None -> (
          let b = Hashtbl.find base.values key in
          match Hashtbl.find_opt next.values key with
          | None -> row (summary b) "-" "" "missing"
          | Some n when Hashtbl.mem base.exact key ->
            let constant = List.for_all (Float.equal (List.hd b)) (b @ n) in
            let show xs = if constant then Measure.number (List.hd xs) else summary xs in
            row (show b) (show n) "" (if pairwise_equal Float.equal b n then "equal" else "worse")
          | Some n -> (
            match List.assoc_opt metric bounds with
            | Some bd ->
              let wins, v = verdict bd b n in
              row (summary b) (summary n) wins v
            | None -> row (summary b) (summary n) "" "-")))
      base.keys
  in
  print_endline
    (Support.Table.render
       ~header:[ "workload"; "metric"; "base median [q1, q3]"; "new median [q1, q3]"; "wins"; "verdict" ]
       rows);
  if !worse > 0 then 1 else 0

let () =
  let spec = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--spec", Arg.Set_string spec, "FILE the BENCHMARK.json with the bounds") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--spec BENCHMARK.json] BASE_DIR [NEW_DIR]";
  let bounds = read_spec !spec in
  match !dirs with
  | [ dir ] -> spreads bounds dir
  | [ base_dir; new_dir ] -> exit (compare_dirs bounds base_dir new_dir)
  | _ -> die "need BASE_DIR and NEW_DIR, or one DIR"

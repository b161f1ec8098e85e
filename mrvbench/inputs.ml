(* Seeded inputs and independent references shared by the workloads. *)

(* Domains and service jobs: at most two, never more than the host has. *)
let jobs = min 2 (Domain.recommended_domain_count ())

let shuffle ~seed xs =
  let a = Array.of_list xs in
  Support.Rng.shuffle (Support.Rng.of_int seed) a;
  Array.to_list a

(* All fifteen bundled programs, or three small ones under --quick. *)
let bundled ~quick =
  if quick then
    List.filter_map Workloads.Registry.find [ "bzip2_comp"; "twolf"; "ijpeg" ]
  else Workloads.Registry.all

let threshold = 0.05

(* The compile every workload runs: profiled memory sync at the paper's
   5% threshold, lint on. *)
let compile ?(sync_sched = false) ~source ~input () =
  Tlscore.Pipeline.compile ~sync_sched ~source ~profile_input:input
    ~memory_sync:(Tlscore.Pipeline.Profiled { dep_input = input; threshold })
    ()

let original_code source =
  Runtime.Code.of_prog (Tlscore.Pipeline.original ~source)

(* Output and final memory of a plain sequential run.  Run on the
   untransformed program it is the reference each result is checked
   against: no compiler pass, speculation or synchronization takes part. *)
type reference = { output : int list; memory : (int * int) list }

let run_sequential code ~input =
  let mem = Runtime.Memory.create () in
  let output = Runtime.Thread.run_sequential code ~input mem in
  { output; memory = Tls.Simstats.canonical_memory mem }

let check ~(expected : reference) ~output ~memory =
  if output <> expected.output then Error "output differs from the reference"
  else if memory <> expected.memory then
    Error "final memory differs from the reference"
  else Ok ()

let digest_of parts =
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare parts)))

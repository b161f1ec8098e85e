(* Loop unrolling by body duplication.

   For factor k, the body blocks are cloned k-1 times.  Back edges are
   re-chained: original latches -> copy 1's header image, copy i's latches
   -> copy i+1's header image, and the last copy's latches -> the original
   header.  Edges leaving the loop keep their original (external) targets.
   Registers are shared between copies — with no SSA form, duplicating
   straight-line code is semantically the identity. *)

let clone_body (prog : Ir.Prog.t) (f : Ir.Func.t) body ~header =
  (* Map of original label -> cloned label (header included: back edges to
     the header inside this copy become edges to the NEXT copy's header,
     patched by the caller). *)
  let mapping = Hashtbl.create 16 in
  List.iter
    (fun l -> Hashtbl.replace mapping l (Ir.Func.add_block f))
    body;
  let map_label l =
    match Hashtbl.find_opt mapping l with
    | Some l' -> l'
    | None -> l                               (* exit edge: external target *)
  in
  List.iter
    (fun l ->
      let src = Ir.Func.block f l in
      let dst = Ir.Func.block f (Hashtbl.find mapping l) in
      dst.Ir.Func.instrs <-
        List.map
          (fun (i : Ir.Instr.t) ->
            let what =
              match Ir.Prog.iid_info prog i.Ir.Instr.iid with
              | Some info -> info.Ir.Prog.what
              | None -> "unrolled"
            in
            {
              i with
              Ir.Instr.iid =
                Ir.Prog.fresh_iid prog ~in_func:f.Ir.Func.name ~what;
            })
          src.Ir.Func.instrs;
      dst.Ir.Func.term <-
        (match src.Ir.Func.term with
        | Ir.Instr.Jmp t -> Ir.Instr.Jmp (map_label t)
        | Ir.Instr.Br (c, a, b) -> Ir.Instr.Br (c, map_label a, map_label b)
        | Ir.Instr.Ret v -> Ir.Instr.Ret v))
    body;
  (mapping, Hashtbl.find mapping header)

(* Retarget edges to [old_header] within the given blocks to [new_header]. *)
let retarget f blocks ~old_header ~new_header =
  List.iter
    (fun l ->
      let b = Ir.Func.block f l in
      let patch t = if t = old_header then new_header else t in
      b.Ir.Func.term <-
        (match b.Ir.Func.term with
        | Ir.Instr.Jmp t -> Ir.Instr.Jmp (patch t)
        | Ir.Instr.Br (c, a, bb) -> Ir.Instr.Br (c, patch a, patch bb)
        | Ir.Instr.Ret v -> Ir.Instr.Ret v))
    blocks

let apply (prog : Ir.Prog.t) (key : Profiler.Profile.loop_key) ~factor =
  if factor < 2 then failwith "Unroll.apply: factor must be >= 2";
  let f = Ir.Prog.func prog key.Profiler.Profile.lk_func in
  let header = key.Profiler.Profile.lk_header in
  let loops = Dataflow.Loops.find f in
  let loop =
    match Dataflow.Loops.loop_of loops header with
    | Some l -> l
    | None ->
      failwith
        (Printf.sprintf "Unroll.apply: no loop at %s/L%d"
           key.Profiler.Profile.lk_func header)
  in
  let body = loop.Dataflow.Loops.body in
  (* Create the k-1 copies first (so external labels are stable), then
     chain the back edges from last copy to first. *)
  let copies =
    List.init (factor - 1) (fun _ -> clone_body prog f body ~header)
  in
  (* Original latches -> first copy's header image. *)
  (match copies with
  | (_, first_header) :: _ ->
    retarget f loop.Dataflow.Loops.back_edges ~old_header:header
      ~new_header:first_header
  | [] -> ());
  (* Copy i's internal header edges -> copy i+1's header image; the last
     copy keeps them pointing at the original header (already does: its
     mapping sent header to its own image... patch below). *)
  let rec chain = function
    | (mapping_i, _) :: (((_, header_next) :: _) as rest) ->
      let blocks_i =
        List.map (fun l -> Hashtbl.find mapping_i l) body
      in
      let own_header_image = Hashtbl.find mapping_i header in
      retarget f blocks_i ~old_header:own_header_image
        ~new_header:header_next;
      chain rest
    | [ (mapping_last, _) ] ->
      let blocks_last =
        List.map (fun l -> Hashtbl.find mapping_last l) body
      in
      let own_header_image = Hashtbl.find mapping_last header in
      retarget f blocks_last ~old_header:own_header_image ~new_header:header
    | [] -> ()
  in
  chain copies;
  (factor - 1) * List.length body

let target_epoch_size = 40.0
let max_factor = 4

let suggested_factor profile key =
  let stats = Profiler.Profile.stats profile key in
  if stats.Profiler.Profile.iterations = 0 then 1
  else begin
    let per_epoch =
      float_of_int stats.Profiler.Profile.dyn_instrs
      /. float_of_int stats.Profiler.Profile.iterations
    in
    if per_epoch >= target_epoch_size then 1
    else
      let f = int_of_float (ceil (target_epoch_size /. per_epoch)) in
      max 2 (min max_factor f)
  end

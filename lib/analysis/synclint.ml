(* Static verifier for the synchronization placement of the scalar-sync
   (Regions) and memory-sync (Memsync) passes, plus a cross-check of the
   static may-dependences against the dynamic dependence profile.

   Detectors:
   - dominance: every [Sync_load] must be strictly dominated by a
     [Wait_mem] on its channel (in whatever function it lives, clones
     included) — otherwise the checked load can consume a stale value.
   - signal-exactness: on every path from the region header to a loop
     latch, each channel of the region must have been signaled (counting
     the guarded [_if_unsent] forms) — a missing signal deadlocks the
     successor epoch.
   - double-signal: a second unconditional signal in the same epoch
     overwrites the forwarded value after consumers may have used it.
     Eager pointer-group signals legitimately repeat (the signal address
     buffer keeps the last store), so only static-address memory channels
     and scalar channels are held to this.
   - self-deadlock: a wait on a channel that the same epoch has already
     unconditionally signaled on every path.  The hardware tolerates this
     (waits consume the predecessor's signals), but a consumer that always
     runs after its own epoch's producer could never have been profiled as
     an inter-epoch consumer — the placement is wrong.
   - foreign-channel: synchronization on a channel not allocated to any
     region, or inside a region's loop on a channel the region (or a
     nested region containing that block) does not own.
   - dead-sync-group: no producer store of the group may alias any of its
     consumer loads (per the points-to analysis) — the synchronization can
     never forward a useful value.
   - profile-under-coverage: a same-address store/load pair in the region
     loop forms a may inter-epoch RAW that the dependence profile never
     observed and that no possible earlier same-epoch store covers — the
     training input may under-cover the dependence.

   The per-channel epoch dataflow treats calls as channel-neutral: the
   passes place every signal of a static-address group in the region
   function, and pointer groups whose stores live in clones always get a
   guarded latch signal, so a latch can only be reached unsignaled through
   a placement bug. *)

module ISet = Set.Make (Int)

type severity =
  | Error
  | Warning

type finding = {
  f_func : string;
  f_block : Ir.Instr.label option;
  f_iid : Ir.Instr.iid option;
  f_detector : string;
  f_severity : severity;
  f_message : string;
}

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"

let to_string fd =
  let where =
    match (fd.f_block, fd.f_iid) with
    | Some l, Some i -> Printf.sprintf "%s/L%d/i%d" fd.f_func l i
    | Some l, None -> Printf.sprintf "%s/L%d" fd.f_func l
    | None, Some i -> Printf.sprintf "%s/i%d" fd.f_func i
    | None, None -> fd.f_func
  in
  Printf.sprintf "%s: %s: [%s] %s"
    (severity_string fd.f_severity)
    where fd.f_detector fd.f_message

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let address_operand (i : Ir.Instr.t) =
  match i.Ir.Instr.kind with
  | Ir.Instr.Load (_, a)
  | Ir.Instr.Store (a, _)
  | Ir.Instr.Sync_load (_, _, a) ->
    Some a
  | _ -> None

(* iid -> (function, block, position, instruction), program-wide. *)
let build_iid_index (prog : Ir.Prog.t) =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun (fname, f) ->
      Array.iteri
        (fun l (b : Ir.Func.block) ->
          List.iteri
            (fun pos (i : Ir.Instr.t) ->
              Hashtbl.replace tbl i.Ir.Instr.iid (fname, l, pos, i))
            b.Ir.Func.instrs)
        f.Ir.Func.blocks)
    prog.Ir.Prog.funcs;
  tbl

let region_channels (r : Ir.Region.t) =
  List.map (fun sc -> sc.Ir.Region.sc_id) r.Ir.Region.scalar_channels
  @ List.map (fun (g : Ir.Region.mem_group) -> g.Ir.Region.mg_id)
      r.Ir.Region.mem_groups

(* A group has a static address when every member access uses one [Imm]. *)
let static_group_addr iid_index (g : Ir.Region.mem_group) =
  let addr_of iid =
    match Hashtbl.find_opt iid_index iid with
    | Some (_, _, _, i) -> begin
      match address_operand i with
      | Some (Ir.Instr.Imm a) -> Some a
      | Some (Ir.Instr.Reg _) | None -> None
    end
    | None -> None
  in
  match g.Ir.Region.mg_loads @ g.Ir.Region.mg_stores with
  | [] -> None
  | first :: rest -> begin
    match addr_of first with
    | None -> None
    | Some a ->
      if List.for_all (fun m -> addr_of m = Some a) rest then Some a else None
  end

let region_latches (f : Ir.Func.t) (region : Ir.Region.t) =
  let loops = Dataflow.Loops.find f in
  match Dataflow.Loops.loop_of loops region.Ir.Region.header with
  | Some l -> l.Dataflow.Loops.back_edges
  | None -> []

(* ------------------------------------------------------------------ *)
(* Per-channel epoch dataflow (signal-exactness, double-signal,        *)
(* self-deadlock)                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-channel state, tracked separately for "any signal sent" (slot 2j)
   and "an unconditional signal sent" (slot 2j+1):
   0 = unreached, 1 = no, 2 = yes (all paths), 3 = maybe. *)
let join_state a b =
  if a = 0 then b else if b = 0 then a else if a = b then a else 3

let signal_dataflow_findings prog iid_index (region : Ir.Region.t) =
  let tracked = region_channels region in
  if tracked = [] then []
  else begin
    let f = Ir.Prog.func prog region.Ir.Region.func in
    let nch = List.length tracked in
    let idx = Hashtbl.create 8 in
    List.iteri (fun j ch -> Hashtbl.replace idx ch (2 * j)) tracked;
    let static_chans =
      List.fold_left
        (fun acc g ->
          match static_group_addr iid_index g with
          | Some _ -> ISet.add g.Ir.Region.mg_id acc
          | None -> acc)
        ISet.empty region.Ir.Region.mem_groups
    in
    let fresh_epoch () = Array.make (2 * nch) 1 in
    let step idx_of fact (i : Ir.Instr.t) =
      match Ir.Instr.channel_of i with
      | None -> ()
      | Some ch -> begin
        match Hashtbl.find_opt idx_of ch with
        | None -> ()
        | Some j -> begin
          match i.Ir.Instr.kind with
          | Ir.Instr.Signal_scalar _ | Ir.Instr.Signal_mem _
          | Ir.Instr.Signal_null _ ->
            fact.(j) <- 2;
            fact.(j + 1) <- 2
          | Ir.Instr.Signal_mem_if_unsent _ | Ir.Instr.Signal_null_if_unsent _
            ->
            (* After a guarded signal the channel is definitely signaled
               (either it just fired or an earlier signal suppressed it). *)
            fact.(j) <- 2
          | _ -> ()
        end
      end
    in
    let walk ~on_instr init l =
      let fact = Array.copy init in
      List.iter
        (fun i ->
          on_instr fact i;
          step idx fact i)
        (Ir.Func.block f l).Ir.Func.instrs;
      fact
    in
    let module D = struct
      type fact = int array

      let equal = ( = )
      let bottom = Array.make (2 * nch) 0
      let boundary = Array.make (2 * nch) 1

      let join a b =
        Array.init (Array.length a) (fun k -> join_state a.(k) b.(k))
    end in
    let module S = Dataflow.Solver.Make (D) in
    let transfer l input =
      (* Each epoch starts un-signaled: the header ignores its (back-edge)
         input.  Blocks outside the loop carry no region sync. *)
      let init = if l = region.Ir.Region.header then fresh_epoch () else input in
      walk ~on_instr:(fun _ _ -> ()) init l
    in
    let inputs, _ = S.solve ~direction:Dataflow.Solver.Forward ~transfer f in
    let findings = ref [] in
    let add ?block ?iid ~det ~sev msg =
      findings :=
        {
          f_func = region.Ir.Region.func;
          f_block = block;
          f_iid = iid;
          f_detector = det;
          f_severity = sev;
          f_message = msg;
        }
        :: !findings
    in
    let latches = region_latches f region in
    List.iter
      (fun l ->
        let init =
          if l = region.Ir.Region.header then fresh_epoch () else inputs.(l)
        in
        let out =
          walk init l ~on_instr:(fun fact i ->
              match Ir.Instr.channel_of i with
              | Some ch when Hashtbl.mem idx ch -> begin
                let j = Hashtbl.find idx ch in
                let any = fact.(j) and uncond = fact.(j + 1) in
                match i.Ir.Instr.kind with
                | Ir.Instr.Signal_scalar _ when any = 2 ->
                  add ~block:l ~iid:i.Ir.Instr.iid ~det:"double-signal"
                    ~sev:Error
                    (Printf.sprintf
                       "second signal on scalar channel c%d in the same epoch"
                       ch)
                | Ir.Instr.Signal_mem _
                  when ISet.mem ch static_chans && (any = 2 || any = 3) ->
                  add ~block:l ~iid:i.Ir.Instr.iid ~det:"double-signal"
                    ~sev:Error
                    (Printf.sprintf
                       "unconditional signal on static-address channel c%d \
                        may repeat an earlier signal of the same epoch"
                       ch)
                | Ir.Instr.Signal_null _ when any = 2 ->
                  add ~block:l ~iid:i.Ir.Instr.iid ~det:"double-signal"
                    ~sev:Error
                    (Printf.sprintf
                       "null signal on channel c%d after the epoch already \
                        signaled it"
                       ch)
                | (Ir.Instr.Wait_scalar _ | Ir.Instr.Wait_mem _)
                  when uncond = 2 ->
                  add ~block:l ~iid:i.Ir.Instr.iid ~det:"self-deadlock"
                    ~sev:Error
                    (Printf.sprintf
                       "wait on channel c%d after the same epoch \
                        unconditionally signaled it on every path"
                       ch)
                | _ -> ()
              end
              | _ -> ())
        in
        if List.mem l latches then
          List.iter
            (fun ch ->
              let j = Hashtbl.find idx ch in
              match out.(j) with
              | 1 ->
                add ~block:l ~det:"signal-exactness" ~sev:Error
                  (Printf.sprintf
                     "channel c%d is never signaled on the paths reaching \
                      this latch"
                     ch)
              | 3 ->
                add ~block:l ~det:"signal-exactness" ~sev:Error
                  (Printf.sprintf
                     "channel c%d may be left unsignaled on a path reaching \
                      this latch"
                     ch)
              | _ -> ())
            tracked)
      region.Ir.Region.blocks;
    List.rev !findings
  end

(* ------------------------------------------------------------------ *)
(* Dominance: every Sync_load is preceded by a Wait_mem on all paths   *)
(* ------------------------------------------------------------------ *)

let dominance_findings (prog : Ir.Prog.t) =
  List.concat_map
    (fun (fname, f) ->
      let waits = Hashtbl.create 8 in
      let sync_loads = ref [] in
      Array.iteri
        (fun l (b : Ir.Func.block) ->
          List.iteri
            (fun pos (i : Ir.Instr.t) ->
              match i.Ir.Instr.kind with
              | Ir.Instr.Wait_mem ch ->
                Hashtbl.replace waits ch
                  ((l, pos)
                  ::
                  (match Hashtbl.find_opt waits ch with
                  | Some ps -> ps
                  | None -> []))
              | Ir.Instr.Sync_load (ch, _, _) ->
                sync_loads := (ch, l, pos, i.Ir.Instr.iid) :: !sync_loads
              | _ -> ())
            b.Ir.Func.instrs)
        f.Ir.Func.blocks;
      if !sync_loads = [] then []
      else begin
        let dom = Dataflow.Dominance.compute f in
        List.filter_map
          (fun (ch, l, pos, iid) ->
            let covered =
              match Hashtbl.find_opt waits ch with
              | Some ps ->
                List.exists
                  (fun wp -> Dataflow.Dominance.dominates_point dom wp (l, pos))
                  ps
              | None -> false
            in
            if covered then None
            else
              Some
                {
                  f_func = fname;
                  f_block = Some l;
                  f_iid = Some iid;
                  f_detector = "dominance";
                  f_severity = Error;
                  f_message =
                    Printf.sprintf
                      "checked load on channel c%d is not dominated by a \
                       wait_mem on c%d"
                      ch ch;
                })
          (List.rev !sync_loads)
      end)
    prog.Ir.Prog.funcs

(* ------------------------------------------------------------------ *)
(* Foreign channels                                                    *)
(* ------------------------------------------------------------------ *)

let unowned_channel_findings (prog : Ir.Prog.t) =
  let owned =
    List.fold_left
      (fun acc r -> List.fold_left (fun s c -> ISet.add c s) acc
          (region_channels r))
      ISet.empty prog.Ir.Prog.regions
  in
  List.concat_map
    (fun (fname, f) ->
      let fs = ref [] in
      Array.iteri
        (fun l (b : Ir.Func.block) ->
          List.iter
            (fun (i : Ir.Instr.t) ->
              match Ir.Instr.channel_of i with
              | Some ch when not (ISet.mem ch owned) ->
                fs :=
                  {
                    f_func = fname;
                    f_block = Some l;
                    f_iid = Some i.Ir.Instr.iid;
                    f_detector = "foreign-channel";
                    f_severity = Error;
                    f_message =
                      Printf.sprintf
                        "synchronization on channel c%d, which no region owns"
                        ch;
                  }
                  :: !fs
              | _ -> ())
            b.Ir.Func.instrs)
        f.Ir.Func.blocks;
      List.rev !fs)
    prog.Ir.Prog.funcs

let region_ownership_findings (prog : Ir.Prog.t) (region : Ir.Region.t) =
  let own = ISet.of_list (region_channels region) in
  let f = Ir.Prog.func prog region.Ir.Region.func in
  let fs = ref [] in
  List.iter
    (fun l ->
      List.iter
        (fun (i : Ir.Instr.t) ->
          match Ir.Instr.channel_of i with
          | Some ch when not (ISet.mem ch own) ->
            (* Allowed when a nested/overlapping region containing this
               block owns the channel. *)
            let ok =
              List.exists
                (fun (r' : Ir.Region.t) ->
                  String.equal r'.Ir.Region.func region.Ir.Region.func
                  && List.mem l r'.Ir.Region.blocks
                  && List.mem ch (region_channels r'))
                prog.Ir.Prog.regions
            in
            if not ok then
              fs :=
                {
                  f_func = region.Ir.Region.func;
                  f_block = Some l;
                  f_iid = Some i.Ir.Instr.iid;
                  f_detector = "foreign-channel";
                  f_severity = Error;
                  f_message =
                    Printf.sprintf
                      "synchronization on channel c%d inside region %d, which \
                       does not own it"
                      ch region.Ir.Region.id;
                }
                :: !fs
          | _ -> ())
        (Ir.Func.block f l).Ir.Func.instrs)
    region.Ir.Region.blocks;
  List.rev !fs

(* ------------------------------------------------------------------ *)
(* Dead sync groups (alias cross-check)                                *)
(* ------------------------------------------------------------------ *)

let dead_group_findings pt iid_index (region : Ir.Region.t) =
  List.filter_map
    (fun (g : Ir.Region.mem_group) ->
      let addr_abs iid =
        match Hashtbl.find_opt iid_index iid with
        | Some (fname, _, _, i) ->
          Option.map (Pointsto.operand_addr pt fname) (address_operand i)
        | None -> None
      in
      let loads = List.filter_map addr_abs g.Ir.Region.mg_loads in
      let stores = List.filter_map addr_abs g.Ir.Region.mg_stores in
      if loads = [] || stores = [] then None
      else if
        List.exists
          (fun s -> List.exists (fun ld -> Pointsto.may_alias pt s ld) loads)
          stores
      then None
      else
        Some
          {
            f_func = region.Ir.Region.func;
            f_block = Some region.Ir.Region.header;
            f_iid = None;
            f_detector = "dead-sync-group";
            f_severity = Warning;
            f_message =
              Printf.sprintf
                "sync group c%d: no producer store may alias any consumer \
                 load; the synchronization is dead"
                g.Ir.Region.mg_id;
          })
    region.Ir.Region.mem_groups

(* ------------------------------------------------------------------ *)
(* Profile coverage cross-check                                        *)
(* ------------------------------------------------------------------ *)

(* May a store to [addr] (or its object) have executed earlier in the same
   epoch?  Union dataflow over the region blocks, reset at the header. *)
type cover = {
  c_all : bool;          (* a store through a pointer we cannot account for *)
  c_exacts : ISet.t;     (* exact addresses stored *)
  c_objs : ISet.t;       (* objects possibly stored through pointers *)
}

let cover_empty = { c_all = false; c_exacts = ISet.empty; c_objs = ISet.empty }

let cover_join a b =
  {
    c_all = a.c_all || b.c_all;
    c_exacts = ISet.union a.c_exacts b.c_exacts;
    c_objs = ISet.union a.c_objs b.c_objs;
  }

let cover_equal a b =
  a.c_all = b.c_all
  && ISet.equal a.c_exacts b.c_exacts
  && ISet.equal a.c_objs b.c_objs

let covers pt c a =
  c.c_all
  || ISet.mem a c.c_exacts
  ||
  match Pointsto.object_containing pt a with
  | Some o -> ISet.mem o c.c_objs
  | None -> false

let objs_of_addr pt fname r =
  match Pointsto.reg_addr pt fname r with
  | Pointsto.Objects s ->
    `Objs (ISet.of_list (Pointsto.Int_set.elements s))
  | Pointsto.Unknown -> `All
  | Pointsto.Exact a -> `Exact a

(* Transitive store footprint of every function, for calls. *)
let store_footprints pt (prog : Ir.Prog.t) =
  let fp = Hashtbl.create 16 in
  List.iter
    (fun (fname, _) -> Hashtbl.replace fp fname cover_empty)
    prog.Ir.Prog.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fname, f) ->
        let cur = ref (Hashtbl.find fp fname) in
        Ir.Func.iter_instrs f (fun _ i ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Store (Ir.Instr.Imm a, _) ->
              cur := { !cur with c_exacts = ISet.add a !cur.c_exacts }
            | Ir.Instr.Store (Ir.Instr.Reg r, _) -> begin
              match objs_of_addr pt fname r with
              | `Objs s -> cur := { !cur with c_objs = ISet.union s !cur.c_objs }
              | `All -> cur := { !cur with c_all = true }
              | `Exact a ->
                cur := { !cur with c_exacts = ISet.add a !cur.c_exacts }
            end
            | Ir.Instr.Call (_, callee, _) -> begin
              match Hashtbl.find_opt fp callee with
              | Some c -> cur := cover_join !cur c
              | None -> ()
            end
            | _ -> ());
        if not (cover_equal !cur (Hashtbl.find fp fname)) then begin
          Hashtbl.replace fp fname !cur;
          changed := true
        end)
      prog.Ir.Prog.funcs
  done;
  fp

let coverage_findings pt (prog : Ir.Prog.t) (region : Ir.Region.t)
    (dp : Profiler.Profile.dep_profile) =
  if dp.Profiler.Profile.total_epochs = 0 then []
  else begin
    let fname = region.Ir.Region.func in
    let f = Ir.Prog.func prog fname in
    let fp = store_footprints pt prog in
    (* Candidate accesses: exact-address stores and (unsynchronized) loads
       of globals within the region loop. *)
    let stores = ref [] and loads = ref [] in
    List.iter
      (fun l ->
        List.iteri
          (fun pos (i : Ir.Instr.t) ->
            match i.Ir.Instr.kind with
            | Ir.Instr.Store (Ir.Instr.Imm a, _)
              when Pointsto.object_containing pt a <> None ->
              stores := (a, l, pos, i.Ir.Instr.iid) :: !stores
            | Ir.Instr.Load (_, Ir.Instr.Imm a)
              when Pointsto.object_containing pt a <> None ->
              loads := (a, l, pos, i.Ir.Instr.iid) :: !loads
            | _ -> ())
          (Ir.Func.block f l).Ir.Func.instrs)
      region.Ir.Region.blocks;
    if !stores = [] || !loads = [] then []
    else begin
      let synced =
        List.fold_left
          (fun acc (r : Ir.Region.t) ->
            List.fold_left
              (fun acc (g : Ir.Region.mem_group) ->
                List.fold_left (fun s i -> ISet.add i s) acc
                  g.Ir.Region.mg_loads)
              acc r.Ir.Region.mem_groups)
          ISet.empty prog.Ir.Prog.regions
      in
      let observed = Hashtbl.create 64 in
      Hashtbl.iter
        (fun (d : Profiler.Profile.dep) _ ->
          Hashtbl.replace observed
            ( d.Profiler.Profile.producer.Profiler.Profile.a_iid,
              d.Profiler.Profile.consumer.Profiler.Profile.a_iid )
            ())
        dp.Profiler.Profile.dep_epochs;
      let gen fact (i : Ir.Instr.t) =
        match i.Ir.Instr.kind with
        | Ir.Instr.Store (Ir.Instr.Imm a, _) ->
          { fact with c_exacts = ISet.add a fact.c_exacts }
        | Ir.Instr.Store (Ir.Instr.Reg r, _) -> begin
          match objs_of_addr pt fname r with
          | `Objs s -> { fact with c_objs = ISet.union s fact.c_objs }
          | `All -> { fact with c_all = true }
          | `Exact a -> { fact with c_exacts = ISet.add a fact.c_exacts }
        end
        | Ir.Instr.Call (_, callee, _) -> begin
          match Hashtbl.find_opt fp callee with
          | Some c -> cover_join fact c
          | None -> fact
        end
        | _ -> fact
      in
      let module D = struct
        type fact = cover

        let equal = cover_equal
        let bottom = cover_empty
        let boundary = cover_empty
        let join = cover_join
      end in
      let module S = Dataflow.Solver.Make (D) in
      let transfer l input =
        let init =
          if l = region.Ir.Region.header then cover_empty else input
        in
        List.fold_left gen init (Ir.Func.block f l).Ir.Func.instrs
      in
      let inputs, _ = S.solve ~direction:Dataflow.Solver.Forward ~transfer f in
      let cover_at l pos =
        let init =
          if l = region.Ir.Region.header then cover_empty else inputs.(l)
        in
        let instrs = (Ir.Func.block f l).Ir.Func.instrs in
        let rec go k fact = function
          | [] -> fact
          | i :: rest ->
            if k >= pos then fact else go (k + 1) (gen fact i) rest
        in
        go 0 init instrs
      in
      List.concat_map
        (fun (la, ll, lpos, liid) ->
          if ISet.mem liid synced then []
          else begin
            let cov = lazy (cover_at ll lpos) in
            List.filter_map
              (fun (sa, _, _, siid) ->
                if
                  sa <> la
                  || Hashtbl.mem observed (siid, liid)
                  || covers pt (Lazy.force cov) la
                then None
                else
                  Some
                    {
                      f_func = fname;
                      f_block = Some ll;
                      f_iid = Some liid;
                      f_detector = "profile-under-coverage";
                      f_severity = Warning;
                      f_message =
                        Printf.sprintf
                          "load i%d of %s may consume store i%d across \
                           epochs, but the dependence profile never observed \
                           it (training input may under-cover it)"
                          liid
                          (Pointsto.pp_addr pt (Pointsto.Exact la))
                          siid;
                    })
              !stores
          end)
        !loads
    end
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_region pt iid_index prog (region : Ir.Region.t) ~dep_profile =
  signal_dataflow_findings prog iid_index region
  @ region_ownership_findings prog region
  @ dead_group_findings pt iid_index region
  @
  match dep_profile with
  | Some dp -> coverage_findings pt prog region dp
  | None -> []

(* Re-running the linter after an IR rewrite (e.g. sync scheduling) can
   reuse the points-to analysis computed before it: the flow-insensitive
   facts depend only on the instruction set, not on instruction order. *)
let resolve_pointsto pointsto prog =
  match pointsto with
  | Some pt -> pt
  | None -> Pointsto.analyze prog

let run_prog ?pointsto ?(dep_profiles = []) (prog : Ir.Prog.t) =
  let pt = resolve_pointsto pointsto prog in
  let iid_index = build_iid_index prog in
  let per_region =
    List.concat_map
      (fun (r : Ir.Region.t) ->
        let key =
          {
            Profiler.Profile.lk_func = r.Ir.Region.func;
            lk_header = r.Ir.Region.header;
          }
        in
        let dep_profile = List.assoc_opt key dep_profiles in
        run_region pt iid_index prog r ~dep_profile)
      prog.Ir.Prog.regions
  in
  List.sort_uniq compare
    (dominance_findings prog @ unowned_channel_findings prog @ per_region)

(* Andersen-style flow-insensitive points-to analysis over the register IR.

   Abstract memory objects are the globals of the program layout: a scalar
   global is one object, an array (or array of structs) is one summarized
   object.  There is no heap and no stack memory in this machine — locals
   live in registers — so the global segment is the whole may-point-to
   universe.

   Nodes are the virtual registers of every function plus one "contents"
   node per object (field-insensitive: everything ever stored into an
   object merges into its contents node).  [Mov] register copies are
   collapsed with a union-find (the Steensgaard shortcut for the one case
   where it loses nothing); all remaining flow — arithmetic, loads,
   stores, calls, returns, and the TLS forwarding channels — becomes
   directed subset edges solved to a fixpoint with a worklist.

   Address arithmetic assumption: the IR computes element addresses as
   [base + index*scale] where [base] is a folded [Imm] global address, so
   an access through a pointer derived from object [o] stays within [o]
   (indices are assumed in bounds — the machine has no bounds checks and
   the workloads never stray).  A register whose points-to set is empty
   yields [Unknown], which [may_alias] treats conservatively: the analysis
   only ever *claims* no-alias between addresses it fully accounts for. *)

module Int_set = Set.Make (Int)

type addr =
  | Exact of int           (* a folded constant address *)
  | Objects of Int_set.t   (* somewhere within one of these objects *)
  | Unknown                (* not derived from any global base *)

type obj = { o_name : string; o_addr : int; o_words : int }

type t = {
  objs : obj array;
  reg_base : (string, int) Hashtbl.t;   (* function -> first register node *)
  uf : Support.Union_find.t;
  pts : Int_set.t array;                (* indexed by union-find root *)
}

let num_objects t = Array.length t.objs

let object_name t k = t.objs.(k).o_name
let object_extent t k = (t.objs.(k).o_addr, t.objs.(k).o_words)

let object_containing t a =
  let n = Array.length t.objs in
  let rec go k =
    if k >= n then None
    else
      let o = t.objs.(k) in
      if a >= o.o_addr && a < o.o_addr + o.o_words then Some k else go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)

let analyze (prog : Ir.Prog.t) : t =
  let objs =
    Ir.Layout.globals prog.Ir.Prog.layout
    |> List.map (fun (o_name, o_addr, o_words) -> { o_name; o_addr; o_words })
    |> Array.of_list
  in
  let obj_of_const a =
    let n = Array.length objs in
    let rec go k =
      if k >= n then None
      else if a >= objs.(k).o_addr && a < objs.(k).o_addr + objs.(k).o_words
      then Some k
      else go (k + 1)
    in
    go 0
  in
  (* Node numbering: registers of each function, then object contents. *)
  let reg_base = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun (name, f) ->
      Hashtbl.replace reg_base name !next;
      next := !next + f.Ir.Func.nregs)
    prog.Ir.Prog.funcs;
  let mem_base = !next in
  let nnodes = mem_base + Array.length objs in
  let uf = Support.Union_find.create (max nnodes 1) in
  let node fname r = Hashtbl.find reg_base fname + r in
  let memnode k = mem_base + k in
  (* Collapse Mov register copies. *)
  List.iter
    (fun (fname, f) ->
      Ir.Func.iter_instrs f (fun _ i ->
          match i.Ir.Instr.kind with
          | Ir.Instr.Mov (d, Ir.Instr.Reg s) ->
            ignore (Support.Union_find.union uf (node fname d) (node fname s))
          | _ -> ()))
    prog.Ir.Prog.funcs;
  let root n = Support.Union_find.find uf n in
  let pts = Array.make (max nnodes 1) Int_set.empty in
  let succ = Array.make (max nnodes 1) Int_set.empty in
  (* Deferred (address-dependent) constraints, indexed by address root:
     when object [o] enters pts(a), a load constraint adds the edge
     mem(o) -> dst and a store constraint adds value -> mem(o). *)
  let loadc = Array.make (max nnodes 1) [] in
  let storec = Array.make (max nnodes 1) [] in
  let storec_const = Array.make (max nnodes 1) Int_set.empty in
  let work = Queue.create () in
  let queued = Array.make (max nnodes 1) false in
  let enqueue n =
    if not queued.(n) then begin
      queued.(n) <- true;
      Queue.add n work
    end
  in
  let add_objs n os =
    if not (Int_set.is_empty os) then begin
      let n = root n in
      let merged = Int_set.union pts.(n) os in
      if not (Int_set.equal merged pts.(n)) then begin
        pts.(n) <- merged;
        enqueue n
      end
    end
  in
  let add_edge src dst =
    let src = root src and dst = root dst in
    if src <> dst && not (Int_set.mem dst succ.(src)) then begin
      succ.(src) <- Int_set.add dst succ.(src);
      add_objs dst pts.(src)
    end
  in
  (* Value flow: operand (resolved in [fname]) into node [dst]. *)
  let flow_operand fname dst op =
    match op with
    | Ir.Instr.Reg r -> add_edge (node fname r) dst
    | Ir.Instr.Imm n -> begin
      match obj_of_const n with
      | Some k -> add_objs dst (Int_set.singleton k)
      | None -> ()
    end
  in
  (* A load of [aop] (resolved in [fname]) into node [dst]. *)
  let flow_load fname dst aop =
    match aop with
    | Ir.Instr.Imm n -> begin
      match obj_of_const n with
      | Some k -> add_edge (memnode k) dst
      | None -> ()
    end
    | Ir.Instr.Reg r ->
      let a = root (node fname r) in
      loadc.(a) <- root dst :: loadc.(a);
      enqueue a
  in
  (* Return operands per function, for call-return flow. *)
  let rets = Hashtbl.create 16 in
  List.iter
    (fun (fname, f) ->
      let ops = ref [] in
      Array.iter
        (fun (b : Ir.Func.block) ->
          match b.Ir.Func.term with
          | Ir.Instr.Ret (Some op) -> ops := op :: !ops
          | _ -> ())
        f.Ir.Func.blocks;
      Hashtbl.replace rets fname !ops)
    prog.Ir.Prog.funcs;
  (* Forwarding channels: producers feed consumers of the same channel. *)
  let scalar_waits = ref [] (* (channel, dst node) *)
  and scalar_sigs = ref [] (* (channel, fname, operand) *)
  and sync_dsts = ref [] (* (channel, dst node) *)
  and mem_sigs = ref [] (* (channel, fname, addr operand) *) in
  (* Constraint generation. *)
  List.iter
    (fun (fname, f) ->
      Ir.Func.iter_instrs f (fun _ i ->
          match i.Ir.Instr.kind with
          | Ir.Instr.Mov (d, (Ir.Instr.Imm _ as op)) ->
            flow_operand fname (node fname d) op
          | Ir.Instr.Mov (_, Ir.Instr.Reg _) -> () (* unified above *)
          | Ir.Instr.Bin (_, d, a, b) ->
            (* Pointer arithmetic keeps pointing into the same object. *)
            flow_operand fname (node fname d) a;
            flow_operand fname (node fname d) b
          | Ir.Instr.Load (d, aop) -> flow_load fname (node fname d) aop
          | Ir.Instr.Store (aop, vop) -> begin
            match aop with
            | Ir.Instr.Imm n -> begin
              match obj_of_const n with
              | Some k -> flow_operand fname (memnode k) vop
              | None -> ()
            end
            | Ir.Instr.Reg r -> begin
              let a = root (node fname r) in
              (match vop with
              | Ir.Instr.Reg rv -> storec.(a) <- root (node fname rv) :: storec.(a)
              | Ir.Instr.Imm n -> begin
                match obj_of_const n with
                | Some k ->
                  storec_const.(a) <- Int_set.add k storec_const.(a)
                | None -> ()
              end);
              enqueue a
            end
          end
          | Ir.Instr.Call (dst, callee, args) -> begin
            match Ir.Prog.func_opt prog callee with
            | None -> ()
            | Some cf ->
              let rec bind params args =
                match (params, args) with
                | (_, preg) :: ps, a :: as_ ->
                  flow_operand fname (node callee preg) a;
                  bind ps as_
                | _ -> ()
              in
              bind cf.Ir.Func.params args;
              (match dst with
              | Some d ->
                List.iter
                  (fun rop -> flow_operand callee (node fname d) rop)
                  (try Hashtbl.find rets callee with Not_found -> [])
              | None -> ())
          end
          | Ir.Instr.Wait_scalar (ch, d) ->
            scalar_waits := (ch, node fname d) :: !scalar_waits
          | Ir.Instr.Signal_scalar (ch, op) ->
            scalar_sigs := (ch, fname, op) :: !scalar_sigs
          | Ir.Instr.Sync_load (ch, d, aop) ->
            flow_load fname (node fname d) aop;
            sync_dsts := (ch, node fname d) :: !sync_dsts
          | Ir.Instr.Signal_mem (ch, aop)
          | Ir.Instr.Signal_mem_if_unsent (ch, aop) ->
            mem_sigs := (ch, fname, aop) :: !mem_sigs
          | Ir.Instr.Print _ | Ir.Instr.Input _ | Ir.Instr.Input_len _
          | Ir.Instr.Wait_mem _ | Ir.Instr.Signal_null _
          | Ir.Instr.Signal_null_if_unsent _ ->
            ()))
    prog.Ir.Prog.funcs;
  List.iter
    (fun (ch, dst) ->
      List.iter
        (fun (ch', fs, op) -> if ch = ch' then flow_operand fs dst op)
        !scalar_sigs)
    !scalar_waits;
  (* A checked load receives mem[addr] for every signaled address of its
     channel (in addition to its own address, handled above). *)
  List.iter
    (fun (ch, dst) ->
      List.iter
        (fun (ch', fs, aop) -> if ch = ch' then flow_load fs dst aop)
        !mem_sigs)
    !sync_dsts;
  (* Fixpoint. *)
  for n = 0 to nnodes - 1 do
    if root n = n && not (Int_set.is_empty pts.(n)) then enqueue n
  done;
  while not (Queue.is_empty work) do
    let n = Queue.pop work in
    queued.(n) <- false;
    let p = pts.(n) in
    Int_set.iter (fun s -> add_objs s p) succ.(n);
    List.iter
      (fun d -> Int_set.iter (fun o -> add_edge (memnode o) d) p)
      loadc.(n);
    List.iter
      (fun v -> Int_set.iter (fun o -> add_edge v (memnode o)) p)
      storec.(n);
    if not (Int_set.is_empty storec_const.(n)) then
      Int_set.iter (fun o -> add_objs (memnode o) storec_const.(n)) p
  done;
  { objs; reg_base; uf; pts }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let reg_addr t fname r =
  match Hashtbl.find_opt t.reg_base fname with
  | None -> Unknown
  | Some base ->
    let n = Support.Union_find.find t.uf (base + r) in
    let s = t.pts.(n) in
    if Int_set.is_empty s then Unknown else Objects s

let operand_addr t fname = function
  | Ir.Instr.Imm n -> Exact n
  | Ir.Instr.Reg r -> reg_addr t fname r

let may_alias t a b =
  match (a, b) with
  | Unknown, _ | _, Unknown -> true
  | Exact x, Exact y -> x = y
  | Exact x, Objects s | Objects s, Exact x -> begin
    match object_containing t x with
    | Some o -> Int_set.mem o s
    | None -> false
  end
  | Objects s1, Objects s2 -> not (Int_set.disjoint s1 s2)

let pp_addr t = function
  | Exact a -> begin
    match object_containing t a with
    | Some o when t.objs.(o).o_addr = a -> t.objs.(o).o_name
    | Some o -> Printf.sprintf "%s+%d" t.objs.(o).o_name (a - t.objs.(o).o_addr)
    | None -> Printf.sprintf "0x%x" a
  end
  | Objects s ->
    Printf.sprintf "{%s}"
      (String.concat ","
         (List.map (fun o -> t.objs.(o).o_name) (Int_set.elements s)))
  | Unknown -> "?"

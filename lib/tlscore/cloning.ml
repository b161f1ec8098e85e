type result = {
  resolve : Profiler.Profile.access -> string * Ir.Instr.iid;
  clones_created : int;
  instrs_added : int;
}

(* Clone a function with fresh instruction ids and remember old -> new. *)
let clone_func (prog : Ir.Prog.t) (f : Ir.Func.t) new_name =
  let mapping = Hashtbl.create 64 in
  let copy_instr (i : Ir.Instr.t) =
    let what =
      match Ir.Prog.iid_info prog i.Ir.Instr.iid with
      | Some info -> info.Ir.Prog.what
      | None -> "cloned"
    in
    let iid = Ir.Prog.fresh_iid prog ~in_func:new_name ~what in
    Hashtbl.replace mapping i.Ir.Instr.iid iid;
    { i with Ir.Instr.iid }
  in
  let blocks =
    Array.map
      (fun (b : Ir.Func.block) ->
        {
          Ir.Func.instrs = List.map copy_instr b.Ir.Func.instrs;
          term = b.Ir.Func.term;
        })
      f.Ir.Func.blocks
  in
  let clone =
    {
      Ir.Func.name = new_name;
      params = f.Ir.Func.params;
      nregs = f.Ir.Func.nregs;
      blocks;
      reg_names = Hashtbl.copy f.Ir.Func.reg_names;
    }
  in
  (clone, mapping)

(* Find the callee name of a call instruction. *)
let callee_of (i : Ir.Instr.t) =
  match i.Ir.Instr.kind with
  | Ir.Instr.Call (_, name, _) -> Some name
  | _ -> None

let apply (prog : Ir.Prog.t) ~region_func ~accesses =
  (* Index every instruction of the current program by iid. *)
  let instr_index = Hashtbl.create 1024 in
  List.iter
    (fun (fname, f) ->
      Ir.Func.iter_instrs f (fun _ i ->
          Hashtbl.replace instr_index i.Ir.Instr.iid (fname, i)))
    prog.Ir.Prog.funcs;
  (* All call-path prefixes needed, shortest first so parents exist. *)
  let prefixes = Hashtbl.create 16 in
  List.iter
    (fun (a : Profiler.Profile.access) ->
      let rec add prefix = function
        | [] -> ()
        | c :: rest ->
          let p = prefix @ [ c ] in
          Hashtbl.replace prefixes p ();
          add p rest
      in
      add [] a.Profiler.Profile.a_ctx)
    accesses;
  let all_prefixes =
    Hashtbl.fold (fun p () acc -> p :: acc) prefixes []
    |> List.sort (fun a b ->
           match compare (List.length a) (List.length b) with
           | 0 -> compare a b
           | c -> c)
  in
  (* prefix -> (clone function name, old-iid -> new-iid map) *)
  let clones : (Ir.Instr.iid list, string * (Ir.Instr.iid, Ir.Instr.iid) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let counter = ref 0 in
  let instrs_added = ref 0 in
  List.iter
    (fun prefix ->
      let call_site = List.nth prefix (List.length prefix - 1) in
      let parent_prefix = List.filteri (fun i _ -> i < List.length prefix - 1) prefix in
      (* Function holding the (possibly cloned) call site, and the iid of
         that call site within it. *)
      let parent_name, call_iid_in_parent =
        if parent_prefix = [] then (region_func, call_site)
        else begin
          let pname, pmap = Hashtbl.find clones parent_prefix in
          match Hashtbl.find_opt pmap call_site with
          | Some iid -> (pname, iid)
          | None ->
            failwith "Cloning.apply: call site missing from parent clone"
        end
      in
      let callee_name =
        match Hashtbl.find_opt instr_index call_site with
        | Some (_, i) -> begin
          match callee_of i with
          | Some name -> name
          | None -> failwith "Cloning.apply: context id is not a call"
        end
        | None -> failwith "Cloning.apply: unknown call-site id"
      in
      let callee = Ir.Prog.func prog callee_name in
      incr counter;
      let clone_name = Printf.sprintf "%s__clone%d" callee_name !counter in
      let clone, mapping = clone_func prog callee clone_name in
      instrs_added := !instrs_added + Ir.Func.instr_count clone;
      Ir.Prog.add_func prog clone;
      Hashtbl.replace clones prefix (clone_name, mapping);
      (* Redirect the call site in the parent (clone) to the new clone. *)
      let parent = Ir.Prog.func prog parent_name in
      (match Ir.Edit.instr parent call_iid_in_parent with
      | Some i -> begin
        match i.Ir.Instr.kind with
        | Ir.Instr.Call (dst, _, args) ->
          Ir.Edit.replace_kind parent ~anchor:call_iid_in_parent
            (Ir.Instr.Call (dst, clone_name, args))
        | _ -> failwith "Cloning.apply: redirect target is not a call"
      end
      | None -> failwith "Cloning.apply: call site not found in parent"))
    all_prefixes;
  let resolve (a : Profiler.Profile.access) =
    match a.Profiler.Profile.a_ctx with
    | [] -> (region_func, a.Profiler.Profile.a_iid)
    | ctx ->
      let cname, cmap = Hashtbl.find clones ctx in
      (match Hashtbl.find_opt cmap a.Profiler.Profile.a_iid with
      | Some iid -> (cname, iid)
      | None -> failwith "Cloning.resolve: access not found in clone")
  in
  { resolve; clones_created = !counter; instrs_added = !instrs_added }

type entry = { addr : int; words : int }

type t = {
  struct_fields : (string, (string * int) list) Hashtbl.t;  (* field -> off *)
  struct_sizes : (string, int) Hashtbl.t;
  globals : (string, entry) Hashtbl.t;
  order : string list;                                      (* decl order *)
  extent : int;
  inits : (int * int) list;
}

let globals_base = 4096

let sizeof_with sizes (ty : Lang.Ast.ty) =
  match ty with
  | Lang.Ast.Tint | Lang.Ast.Tptr _ -> 1
  | Lang.Ast.Tvoid -> 0
  | Lang.Ast.Tstruct name -> begin
    match Hashtbl.find_opt sizes name with
    | Some n -> n
    | None -> raise Not_found
  end

let build (p : Lang.Tast.tprogram) : t =
  let struct_fields = Hashtbl.create 16 in
  let struct_sizes = Hashtbl.create 16 in
  List.iter
    (fun (name, fields) ->
      let offsets, size =
        List.fold_left
          (fun (acc, off) (fname, _ty) -> ((fname, off) :: acc, off + 1))
          ([], 0) fields
      in
      Hashtbl.replace struct_fields name (List.rev offsets);
      Hashtbl.replace struct_sizes name size)
    p.Lang.Tast.tp_structs;
  let globals = Hashtbl.create 64 in
  let next = ref globals_base in
  let inits = ref [] in
  let order = ref [] in
  List.iter
    (fun (g : Lang.Ast.global) ->
      let elem_words = sizeof_with struct_sizes g.Lang.Ast.gty in
      let words =
        match g.Lang.Ast.array_len with
        | Some n -> n * elem_words
        | None -> elem_words
      in
      let addr = !next in
      Hashtbl.replace globals g.Lang.Ast.gname { addr; words };
      order := g.Lang.Ast.gname :: !order;
      (match g.Lang.Ast.init with
      | Some v -> inits := (addr, v) :: !inits
      | None -> ());
      next := addr + words)
    p.Lang.Tast.tp_globals;
  {
    struct_fields;
    struct_sizes;
    globals;
    order = List.rev !order;
    extent = !next - globals_base;
    inits = List.rev !inits;
  }

let sizeof t ty = sizeof_with t.struct_sizes ty

let field_offset t sname fname =
  let fields = Hashtbl.find t.struct_fields sname in
  match List.assoc_opt fname fields with
  | Some off -> off
  | None -> raise Not_found

let global_addr t name = (Hashtbl.find t.globals name).addr

let globals t =
  List.map
    (fun name ->
      let { addr; words } = Hashtbl.find t.globals name in
      (name, addr, words))
    t.order

let globals_extent t = t.extent

let initial_stores t = t.inits

let describe_addr t a =
  let best = ref None in
  List.iter
    (fun name ->
      let { addr; words } = Hashtbl.find t.globals name in
      if a >= addr && a < addr + words then best := Some (name, a - addr))
    t.order;
  match !best with
  | Some (name, 0) -> name
  | Some (name, off) -> Printf.sprintf "%s+%d" name off
  | None -> Printf.sprintf "0x%x" a

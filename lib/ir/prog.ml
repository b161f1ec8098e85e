type iid_info = {
  in_func : string;
  what : string;
}

type t = {
  layout : Layout.t;
  mutable funcs : (string * Func.t) list;
  by_name : (string, Func.t) Hashtbl.t;
  mutable next_iid : Instr.iid;
  iid_infos : (Instr.iid, iid_info) Hashtbl.t;
  mutable regions : Region.t list;
  mutable next_region_id : int;
  mutable next_channel : Instr.channel;
}

let create layout =
  {
    layout;
    funcs = [];
    by_name = Hashtbl.create 64;
    next_iid = 0;
    iid_infos = Hashtbl.create 1024;
    regions = [];
    next_region_id = 0;
    next_channel = 0;
  }

let fresh_iid t ~in_func ~what =
  let iid = t.next_iid in
  t.next_iid <- iid + 1;
  Hashtbl.replace t.iid_infos iid { in_func; what };
  iid

let add_func t (f : Func.t) =
  if not (Hashtbl.mem t.by_name f.Func.name) then
    t.funcs <- t.funcs @ [ (f.Func.name, f) ];
  Hashtbl.replace t.by_name f.Func.name f

let func t name = Hashtbl.find t.by_name name

let func_opt t name = Hashtbl.find_opt t.by_name name

let iid_info t iid = Hashtbl.find_opt t.iid_infos iid

let fresh_region_id t =
  let id = t.next_region_id in
  t.next_region_id <- id + 1;
  id

let fresh_channel t =
  let ch = t.next_channel in
  t.next_channel <- ch + 1;
  ch

let clone t =
  let funcs = List.map (fun (name, f) -> (name, Func.clone f)) t.funcs in
  let by_name = Hashtbl.create 64 in
  List.iter (fun (name, f) -> Hashtbl.replace by_name name f) funcs;
  { t with funcs; by_name; iid_infos = Hashtbl.copy t.iid_infos }

let static_size t =
  List.fold_left (fun acc (_, f) -> acc + Func.instr_count f) 0 t.funcs

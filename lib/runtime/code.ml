type cblock = {
  instrs : Ir.Instr.t array;
  term : Ir.Instr.terminator;
}

type cfunc = {
  cf_id : int;
  cf_name : string;
  cf_nregs : int;
  cf_params : Ir.Instr.reg list;
  cf_blocks : cblock array;
}

type t = {
  funcs : (string, cfunc) Hashtbl.t;
  layout : Ir.Layout.t;
  regions : Ir.Region.t list;
  initial_stores : (int * int) list;
}

let snapshot_func ~id (f : Ir.Func.t) : cfunc =
  {
    cf_id = id;
    cf_name = f.Ir.Func.name;
    cf_nregs = f.Ir.Func.nregs;
    cf_params = List.map snd f.Ir.Func.params;
    cf_blocks =
      Array.map
        (fun (b : Ir.Func.block) ->
          { instrs = Array.of_list b.Ir.Func.instrs; term = b.Ir.Func.term })
        f.Ir.Func.blocks;
  }

let of_prog (p : Ir.Prog.t) : t =
  let funcs = Hashtbl.create 64 in
  List.iteri
    (fun id (name, f) -> Hashtbl.replace funcs name (snapshot_func ~id f))
    p.Ir.Prog.funcs;
  {
    funcs;
    layout = p.Ir.Prog.layout;
    regions = p.Ir.Prog.regions;
    initial_stores = Ir.Layout.initial_stores p.Ir.Prog.layout;
  }

let func t name = Hashtbl.find t.funcs name

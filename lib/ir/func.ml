type block = {
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
}

type t = {
  name : string;
  params : (string * Instr.reg) list;
  mutable nregs : int;
  mutable blocks : block array;
  reg_names : (Instr.reg, string) Hashtbl.t;
}

let entry = 0

let create name param_names =
  let reg_names = Hashtbl.create 16 in
  let params =
    List.mapi
      (fun i pname ->
        Hashtbl.replace reg_names i pname;
        (pname, i))
      param_names
  in
  { name; params; nregs = List.length param_names; blocks = [||]; reg_names }

let fresh_reg ?name f =
  let r = f.nregs in
  f.nregs <- r + 1;
  (match name with
  | Some n -> Hashtbl.replace f.reg_names r n
  | None -> ());
  r

let add_block f =
  let label = Array.length f.blocks in
  f.blocks <- Array.append f.blocks [| { instrs = []; term = Instr.Ret None } |];
  label

let block f l = f.blocks.(l)

let num_blocks f = Array.length f.blocks

let successors f l = Instr.successors f.blocks.(l).term

let predecessors f =
  let preds = Array.make (num_blocks f) [] in
  Array.iteri
    (fun l b ->
      List.iter
        (fun s -> preds.(s) <- l :: preds.(s))
        (Instr.successors b.term))
    f.blocks;
  Array.map List.rev preds

let iter_instrs f k =
  Array.iteri (fun l b -> List.iter (fun i -> k l i) b.instrs) f.blocks

let reg_name f r =
  match Hashtbl.find_opt f.reg_names r with
  | Some n -> n
  | None -> Printf.sprintf "r%d" r

let clone f =
  {
    f with
    blocks = Array.map (fun b -> { instrs = b.instrs; term = b.term }) f.blocks;
    reg_names = Hashtbl.copy f.reg_names;
  }

let instr_count f =
  Array.fold_left (fun acc b -> acc + List.length b.instrs) 0 f.blocks

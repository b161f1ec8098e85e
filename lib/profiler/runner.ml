module Int_set = Set.Make (Int)

(* Static loop structure of one function, precomputed for fast lookups
   during execution. *)
type func_loops = {
  headers : Int_set.t;                         (* loop header labels *)
  containing : (int, Int_set.t) Hashtbl.t;     (* block -> headers of loops
                                                  whose body contains it *)
}

(* One dynamic loop instance being tracked. *)
type active = {
  act_key : Profile.loop_key;
  act_body : Int_set.t;            (* labels of the loop body *)
  act_instance : int;              (* globally unique instance id *)
  mutable act_iteration : int;     (* 1-based *)
  act_entered_at : int;            (* icount at entry *)
  act_frame_level : int;           (* index into the frame-data stack *)
  act_watched : bool;
}

(* Per-frame profiling state (parallel to the thread's frame stack). *)
type frame_data = {
  fd_call_iid : Ir.Instr.iid;      (* call site that created this frame *)
  mutable fd_active : active list; (* innermost first *)
}

(* Last writer of a memory word: the store's id plus, for every watched
   loop active at store time, the (instance, iteration, context). *)
type mark = {
  m_key : Profile.loop_key;
  m_instance : int;
  m_iteration : int;
  m_ctx : Ir.Instr.iid list;
}

type writer = { w_iid : Ir.Instr.iid; w_marks : mark list }

type state = {
  mutable active_instances : int;   (* loop instances open across frames *)
  profile : Profile.t;
  func_loops : (string, func_loops) Hashtbl.t;
  loop_bodies : (Profile.loop_key, Int_set.t) Hashtbl.t;
  watch_set : (Profile.loop_key, unit) Hashtbl.t;
  mutable frame_stack : frame_data list;       (* innermost first *)
  mutable watched_active : active list;        (* all watched instances *)
  writers : (int, writer) Hashtbl.t;           (* addr -> last writer *)
  (* Dedup tables: last (instance, iteration) already counted. *)
  dep_seen : (Profile.dep, int * int) Hashtbl.t;
  load_seen : (Profile.access, int * int) Hashtbl.t;
  mutable next_instance : int;
}

let compute_func_loops (f : Ir.Func.t) : func_loops =
  let loops = Dataflow.Loops.find f in
  let headers =
    Int_set.of_list (List.map (fun (l : Dataflow.Loops.loop) -> l.header) loops)
  in
  let containing = Hashtbl.create 16 in
  List.iter
    (fun (l : Dataflow.Loops.loop) ->
      List.iter
        (fun b ->
          let prev =
            match Hashtbl.find_opt containing b with
            | Some s -> s
            | None -> Int_set.empty
          in
          Hashtbl.replace containing b (Int_set.add l.header prev))
        l.body)
    loops;
  { headers; containing }

let stats_for st key =
  match Hashtbl.find_opt st.profile.Profile.loops key with
  | Some s -> s
  | None ->
    let s =
      {
        Profile.instances = 0;
        iterations = 0;
        dyn_instrs = 0;
        nested_instances = 0;
      }
    in
    Hashtbl.replace st.profile.Profile.loops key s;
    s

let dep_profile_for st key =
  match Hashtbl.find_opt st.profile.Profile.deps key with
  | Some dp -> dp
  | None ->
    let dp = Profile.fresh_dep_profile () in
    Hashtbl.replace st.profile.Profile.deps key dp;
    dp

(* Call-site context of the current location relative to a loop entered at
   frame level [lvl]: call iids of the frames strictly inside the loop's
   frame, outermost call first. *)
let context_from st lvl =
  let depth = List.length st.frame_stack in
  (* frame_stack is innermost-first; the frames inside the loop are the
     first (depth - 1 - lvl) entries. *)
  let inside = depth - 1 - lvl in
  let rec take n = function
    | fd :: rest when n > 0 -> fd.fd_call_iid :: take (n - 1) rest
    | _ -> []
  in
  List.rev (take inside st.frame_stack)

let close_instance st icount_now (a : active) =
  st.active_instances <- st.active_instances - 1;
  let s = stats_for st a.act_key in
  s.Profile.iterations <- s.Profile.iterations + a.act_iteration;
  s.Profile.dyn_instrs <- s.Profile.dyn_instrs + (icount_now - a.act_entered_at);
  if a.act_watched then begin
    let dp = dep_profile_for st a.act_key in
    dp.Profile.total_epochs <- dp.Profile.total_epochs + a.act_iteration;
    st.watched_active <-
      List.filter (fun x -> x.act_instance <> a.act_instance) st.watched_active
  end

let open_instance st icount_now key body frame_level =
  let s = stats_for st key in
  s.Profile.instances <- s.Profile.instances + 1;
  if st.active_instances > 0 then
    s.Profile.nested_instances <- s.Profile.nested_instances + 1;
  st.active_instances <- st.active_instances + 1;
  let a =
    {
      act_key = key;
      act_body = body;
      act_instance = st.next_instance;
      act_iteration = 1;
      act_entered_at = icount_now;
      act_frame_level = frame_level;
      act_watched = Hashtbl.mem st.watch_set key;
    }
  in
  st.next_instance <- st.next_instance + 1;
  if a.act_watched then st.watched_active <- a :: st.watched_active;
  a

let handle_goto st icount fname target =
  match st.frame_stack with
  | [] -> ()
  | fd :: _ ->
    let fl = Hashtbl.find st.func_loops fname in
    (* Close instances whose body no longer contains the target. *)
    let still, closed =
      List.partition (fun a -> Int_set.mem target a.act_body) fd.fd_active
    in
    List.iter (close_instance st icount) closed;
    fd.fd_active <- still;
    if Int_set.mem target fl.headers then begin
      match
        List.find_opt
          (fun a -> a.act_key.Profile.lk_header = target)
          fd.fd_active
      with
      | Some a -> a.act_iteration <- a.act_iteration + 1
      | None ->
        let key = { Profile.lk_func = fname; lk_header = target } in
        let body = Hashtbl.find st.loop_bodies key in
        let level = List.length st.frame_stack - 1 in
        fd.fd_active <- open_instance st icount key body level :: fd.fd_active
    end

let handle_frame_pop st icount =
  match st.frame_stack with
  | fd :: rest ->
    List.iter (close_instance st icount) fd.fd_active;
    st.frame_stack <- rest
  | [] -> ()

(* Record the marks of a store for later dependence matching. *)
let record_store st iid addr =
  let marks =
    List.map
      (fun a ->
        {
          m_key = a.act_key;
          m_instance = a.act_instance;
          m_iteration = a.act_iteration;
          m_ctx = context_from st a.act_frame_level;
        })
      st.watched_active
  in
  Hashtbl.replace st.writers addr { w_iid = iid; w_marks = marks }

let record_load st iid addr =
  match Hashtbl.find_opt st.writers addr with
  | None -> ()
  | Some w ->
    List.iter
      (fun a ->
        match
          List.find_opt
            (fun m ->
              m.m_key = a.act_key && m.m_instance = a.act_instance)
            w.w_marks
        with
        | Some m when m.m_iteration < a.act_iteration ->
          let dp = dep_profile_for st a.act_key in
          let consumer_ctx = context_from st a.act_frame_level in
          let dep =
            {
              Profile.producer = { Profile.a_iid = w.w_iid; a_ctx = m.m_ctx };
              consumer = { Profile.a_iid = iid; a_ctx = consumer_ctx };
            }
          in
          let epoch = (a.act_instance, a.act_iteration) in
          let count_once table key_value counter =
            match Hashtbl.find_opt table key_value with
            | Some e when e = epoch -> ()
            | _ ->
              Hashtbl.replace table key_value epoch;
              counter ()
          in
          count_once st.dep_seen dep (fun () ->
              let prev =
                match Hashtbl.find_opt dp.Profile.dep_epochs dep with
                | Some c -> c
                | None -> 0
              in
              Hashtbl.replace dp.Profile.dep_epochs dep (prev + 1));
          count_once st.load_seen dep.Profile.consumer (fun () ->
              let prev =
                match
                  Hashtbl.find_opt dp.Profile.load_dep_epochs
                    dep.Profile.consumer
                with
                | Some c -> c
                | None -> 0
              in
              Hashtbl.replace dp.Profile.load_dep_epochs dep.Profile.consumer
                (prev + 1));
          let dist = a.act_iteration - m.m_iteration in
          let prev =
            match Hashtbl.find_opt dp.Profile.distances dist with
            | Some c -> c
            | None -> 0
          in
          Hashtbl.replace dp.Profile.distances dist (prev + 1)
        | Some _ | None -> ())
      st.watched_active

let all_loops (prog : Ir.Prog.t) =
  List.concat_map
    (fun (fname, f) ->
      List.map
        (fun (l : Dataflow.Loops.loop) ->
          { Profile.lk_func = fname; lk_header = l.header })
        (Dataflow.Loops.find f))
    prog.Ir.Prog.funcs

let max_steps = 200_000_000

let run (prog : Ir.Prog.t) ~input ~watch =
  let code = Runtime.Code.of_prog prog in
  let func_loops = Hashtbl.create 64 in
  let loop_bodies = Hashtbl.create 64 in
  List.iter
    (fun (fname, f) ->
      Hashtbl.replace func_loops fname (compute_func_loops f);
      List.iter
        (fun (l : Dataflow.Loops.loop) ->
          Hashtbl.replace loop_bodies
            { Profile.lk_func = fname; lk_header = l.header }
            (Int_set.of_list l.body))
        (Dataflow.Loops.find f))
    prog.Ir.Prog.funcs;
  let watch_set = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.replace watch_set k ()) watch;
  let profile =
    {
      Profile.loops = Hashtbl.create 64;
      deps = Hashtbl.create 8;
      total_instrs = 0;
      output = [];
    }
  in
  let st =
    {
      active_instances = 0;
      profile;
      func_loops;
      loop_bodies;
      watch_set;
      frame_stack = [ { fd_call_iid = -1; fd_active = [] } ];
      watched_active = [];
      writers = Hashtbl.create 4096;
      dep_seen = Hashtbl.create 256;
      load_seen = Hashtbl.create 256;
      next_instance = 0;
    }
  in
  let mem = Runtime.Memory.create () in
  Runtime.Memory.store_all mem code.Runtime.Code.initial_stores;
  let base = Runtime.Thread.sequential_hooks mem in
  let hooks =
    {
      base with
      Runtime.Thread.load =
        (fun t i addr ->
          record_load st i.Ir.Instr.iid addr;
          base.Runtime.Thread.load t i addr);
      store =
        (fun t i addr v ->
          record_store st i.Ir.Instr.iid addr;
          base.Runtime.Thread.store t i addr v);
    }
  in
  let t = Runtime.Thread.create code ~func_name:"main" ~input in
  let rec loop () =
    if t.Runtime.Thread.icount > max_steps then
      raise
        (Runtime.Thread.Step_limit
           { max_steps; icount = t.Runtime.Thread.icount });
    match Runtime.Thread.step t hooks with
    | Runtime.Thread.Ran (Runtime.Thread.Exec i) ->
      (match i.Ir.Instr.kind with
      | Ir.Instr.Call (_, _, _) ->
        st.frame_stack <-
          { fd_call_iid = i.Ir.Instr.iid; fd_active = [] } :: st.frame_stack
      | _ -> ());
      loop ()
    | Runtime.Thread.Ran (Runtime.Thread.Goto (fname, _from, target)) ->
      handle_goto st t.Runtime.Thread.icount fname target;
      loop ()
    | Runtime.Thread.Ran (Runtime.Thread.Return (_, _)) ->
      handle_frame_pop st t.Runtime.Thread.icount;
      loop ()
    | Runtime.Thread.Blocked | Runtime.Thread.Suspended ->
      raise
        (Runtime.Thread.Unexpected_stop
           {
             reason = "blocked or suspended while profiling";
             icount = t.Runtime.Thread.icount;
           })
    | Runtime.Thread.Finished _ ->
      handle_frame_pop st t.Runtime.Thread.icount
  in
  loop ();
  profile.Profile.total_instrs <- t.Runtime.Thread.icount;
  { profile with Profile.output = Runtime.Thread.output t }

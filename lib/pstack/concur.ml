open Types
module Kernel = Pcont_kernel.Kernel
open Kernel
module Counters = Pcont_util.Counters
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event

type sched =
  | Round_robin
  | Randomized of int64
  | Driven of (int -> int)
      (* each scheduling decision steps exactly one runnable branch:
         [pick n] receives the number of runnable branches and returns the
         index of the one to step (reduced modulo the runnable count) —
         systematic schedule exploration *)
  | Driven_pids of (int array -> int)
      (* as Driven, but the decision function sees the runnable branches'
         node ids in queue order — the hook record/replay needs to pin a
         recorded schedule by pid rather than by position *)

type outcome =
  | Value of Types.value
  | Error of string
  | Out_of_fuel
  | Deadlock of string
      (* every remaining branch is parked on an unresolved future: the
         run queue is empty, so no branch can ever resolve one *)

let outcome_to_string = function
  | Value v -> "VALUE " ^ Value.to_string v
  | Error msg -> "ERROR " ^ msg
  | Out_of_fuel -> "OUT-OF-FUEL"
  | Deadlock msg -> "DEADLOCK " ^ msg

(* The live process tree lives in the scheduler kernel: a leaf is a
   branch's machine state, a wait node is a fork whose trunk is the
   process stack below the fork point. *)
module K = Kernel.Make (struct
  type leaf = state

  type wait = segment list

  type value = Types.value

  let prefix = "concur"
end)

let control_points ptree =
  let count_roots segs =
    List.length (List.filter (fun s -> match s.root with Rspawn _ -> true | _ -> false) segs)
  in
  let rec go = function
    | Pleaf st -> count_roots st.pstack
    | Phole segs -> count_roots segs
    | Pdone -> 0
    | Pfork pf ->
        1 + count_roots pf.pf_trunk + Array.fold_left (fun n t -> n + go t) 0 pf.pf_children
  in
  go ptree

(* Total segments in a captured subtree — the "size" reported by capture
   and reinstate events (what a copying implementation would touch). *)
let tree_segments ptree =
  let rec go = function
    | Pleaf st -> List.length st.pstack
    | Phole segs -> List.length segs
    | Pdone -> 0
    | Pfork pf ->
        List.length pf.pf_trunk
        + Array.fold_left (fun n t -> n + go t) 0 pf.pf_children
  in
  go ptree

let invalid_controller l =
  Printf.sprintf
    "invalid controller application: no process root labeled %d in the \
     current continuation"
    l

let run ?(fuel = 10_000_000) ?(quantum = 16) ?(sched = Round_robin)
    ?(drain_futures = true) ?obs ?cfg genv ir =
  let cfg = match cfg with Some c -> c | None -> Machine.config () in
  let counters = cfg.Machine.counters in
  (* Route the machine's per-operation size distributions into the
     handle's metrics for the duration of this run. *)
  let saved_metrics = cfg.Machine.metrics in
  (match obs with
  | None -> ()
  | Some o -> cfg.Machine.metrics <- Some (Obs.metrics o));
  let k =
    K.create ?obs
      ~policy:
        (match sched with
        | Round_robin -> Tree
        | Randomized seed -> Seeded seed
        | Driven pick -> Pick pick
        | Driven_pids pick -> Pick_pids pick)
      ~resume_wait:(fun trunk vs ->
        match Array.to_list vs with
        | op :: args -> { control = Capply (op, args); pstack = trunk }
        | [] -> assert false)
      ~on_wake:(fun () -> Counters.incr counters "concur.wake")
      (Machine.initial (Resolve.toplevel genv ir))
  in
  let failure = ref None in
  let fuel_left = ref fuel in
  (* Span ids are program-visible ([span-begin] returns one), so without
     a trace handle they come from a local counter and the program
     behaves identically. *)
  let span_parent : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let span_ctr = ref 0 in
  let fail msg =
    failure := Some msg;
    K.halt k
  in
  let fork_of n = match n.body with Nwait f -> f | _ -> assert false in

  (* Controller application whose root is not in the invoking branch's local
     stack: climb the tree for the nearest trunk containing the root, prune
     the subtree of stacks it delimits, and apply the controller's argument
     to the packaged process continuation in the remaining trunk. *)
  let do_capture n st l body_fn =
    (* Every stack that ends up aliased by the packaged [Pktree] must be
       pinned: segments are mutable records and a multi-shot continuation
       can graft the same records back twice, so the machine has to
       copy-on-write rather than mutate them (and never pool them). *)
    let rec ptree_of m =
      if m == n then (
        Machine.pin_segments st.pstack;
        Phole st.pstack)
      else
        match m.body with
        | Nleaf s ->
            Machine.pin_segments s.pstack;
            Pleaf s
        | Nparked e ->
            (* Pruning a parked waiter withdraws its entry and captures it
               as an ordinary suspended leaf; on graft the rebuilt branch
               re-applies its pending touch, which either finds the cell
               resolved or parks again. *)
            K.unpark e;
            Machine.pin_segments e.we_leaf.pstack;
            Pleaf e.we_leaf
        | Ndone -> Pdone
        | Nwait f ->
            Machine.pin_segments f.wk;
            Pfork
              {
                pf_trunk = f.wk;
                pf_children = Array.map ptree_of f.children;
                pf_results = Array.copy f.results;
              }
    in
    let rec climb cur =
      match cur.parent with
      | Ptop | Pfuture _ -> None
      | Pchild (p, _) -> (
          let f = fork_of p in
          match Machine.split_at_spawn_label l f.wk with
          | Some (above_incl, below) -> Some (p, f, above_incl, below)
          | None -> climb p)
    in
    match climb n with
    | None ->
        (match obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Invalid_controller { pid = n.nid; label = l }));
        fail (invalid_controller l)
    | Some (p, f, above_incl, below) ->
        K.pruned k;
        Counters.incr counters "concur.capture";
        Counters.incr counters "sync.lock";
        Machine.pin_segments above_incl;
        let tree =
          Pfork
            {
              pf_trunk = above_incl;
              pf_children = Array.map ptree_of f.children;
              pf_results = Array.copy f.results;
            }
        in
        let cp = control_points tree in
        Counters.add counters "concur.capture.control-points" cp;
        (match obs with
        | None -> ()
        | Some o ->
            let size = tree_segments tree in
            Obs.observe o "concur.capture.control-points" cp;
            Obs.observe o "concur.capture.segments" size;
            Obs.emit o
              (E.Capture
                 { pid = n.nid; label = l; root_pid = p.nid; control_points = cp; size }));
        let pk = Pktree { pkt_label = l; pkt_tree = tree } in
        p.body <- Nleaf { control = Capply (body_fn, [ pk ]); pstack = below };
        K.set_born k [ p ]
  in

  (* Invoke a tree-shaped process continuation: graft the saved subtree onto
     the invoking branch.  The saved trunk is spliced on top of the invoking
     branch's stack, every saved leaf is rebuilt as a fresh node (under the
     reinstating branch's span), and the continuation's argument is
     returned at the saved hole. *)
  let do_graft n st pkt v =
    Counters.incr counters "concur.graft";
    (match obs with
    | None -> ()
    | Some o ->
        Obs.emit o
          (E.Reinstate
             { pid = n.nid; label = pkt.pkt_label; size = tree_segments pkt.pkt_tree }));
    let rec rebuild parent pt =
      let m = K.node k parent Ndone in
      (match pt with
      | Phole segs -> m.body <- Nleaf { control = Creturn v; pstack = segs }
      | Pleaf s -> m.body <- Nleaf s
      | Pdone -> ()
      | Pfork pf -> graft_fork m pf pf.pf_trunk);
      m
    and graft_fork m pf trunk =
      K.wait_on m trunk (Array.copy pf.pf_results) (fun parent i ->
          rebuild parent pf.pf_children.(i))
    in
    match pkt.pkt_tree with
    | Pfork pf ->
        graft_fork n pf (pf.pf_trunk @ st.pstack);
        K.grafted k n
    | Phole _ | Pleaf _ | Pdone ->
        (* Captures always package a fork at the top. *)
        assert false
  in

  (* Step one branch for up to [quantum] transitions, or until it blocks on
     a scheduler-level event.  Fork/future/span interceptions consume
     quantum but no fuel; parking consumes neither — a blocked branch
     takes no machine transitions. *)
  let step n st =
    let rec go st q =
      if q = 0 || !fuel_left <= 0 then n.body <- Nleaf st
      else
        match Machine.step_exn_conc cfg st with
        | st' ->
            decr fuel_left;
            go st' (q - 1)
        | exception Machine.Stop s -> (
            match s with
            | Machine.Esc_fork (exprs, env') ->
                (* pcall: every subexpression becomes a child branch with a
                   fresh local stack *)
                Counters.incr counters "concur.fork";
                K.fork k n st.pstack
                  (List.map
                     (fun e -> { control = Ceval (e, env'); pstack = Machine.initial_pstack })
                     exprs)
                  "branch"
            | Machine.Esc_future (e, env') ->
                (* Plant an independent tree in the forest; the current
                   branch continues immediately with the (pending)
                   future. *)
                Counters.incr counters "concur.future";
                let cell = Kernel.future () in
                K.plant_future k n cell
                  { control = Ceval (e, env'); pstack = Machine.initial_pstack };
                go { st with control = Creturn (Future cell) } (q - 1)
            | Machine.Esc_touch cell ->
                (* Still pending: park on the cell, keeping the state, so
                   the wake-up re-applies the touch against the resolved
                   cell. *)
                Counters.incr counters "concur.park";
                K.park k n cell.fws st
            | Machine.Esc_sleep d ->
                (* The saved state returns 0 from the sleep call, so a
                   woken — or captured-and-grafted — sleeper resumes past
                   it (a grafted sleeper wakes early, like any pruned
                   parked waiter). *)
                Counters.incr counters "concur.park";
                K.sleep k n d { st with control = Creturn (Int 0) }
            | Machine.Esc_span_begin name ->
                (* from the handle when there is one, so flight dumps and
                   live traces agree *)
                let id =
                  match obs with
                  | Some o -> Obs.Span.begin_ o ~pid:n.nid ~parent:k.cur_span name
                  | None ->
                      incr span_ctr;
                      !span_ctr
                in
                Hashtbl.replace span_parent id k.cur_span;
                K.set_span k id;
                go { st with control = Creturn (Int id) } (q - 1)
            | Machine.Esc_span_end id ->
                (match obs with
                | None -> ()
                | Some o -> Obs.Span.end_ o ~pid:n.nid id);
                if k.cur_span = id then
                  K.set_span k
                    (match Hashtbl.find_opt span_parent id with
                    | Some parent -> parent
                    | None -> -1);
                Hashtbl.remove span_parent id;
                go { st with control = Creturn Unit } (q - 1)
            | _ -> (
                decr fuel_left;
                match s with
                | Machine.Final v -> K.deliver k n v
                | Machine.Err msg -> fail msg
                | Machine.Esc_control (l, body_fn) -> do_capture n st l body_fn
                | Machine.Esc_pktree (pkt, v) -> do_graft n st pkt v
                | Machine.Next _ | Machine.Esc_fork _ | Machine.Esc_future _
                | Machine.Esc_touch _ | Machine.Esc_sleep _
                | Machine.Esc_span_begin _ | Machine.Esc_span_end _ ->
                    assert false))
    in
    (* A run slice: everything the branch does before the scheduler moves
       on, charged the fuel it used, so Chrome-trace slice widths are
       proportional to machine work. *)
    K.begin_slice k n;
    let fuel0 = !fuel_left in
    go st quantum;
    K.end_slice k n (fuel0 - !fuel_left);
    if !fuel_left <= 0 then K.halt k
  in
  let verdict () =
    match (!failure, k.final) with
    | Some msg, _ -> Some (Error msg)
    | None, Some v ->
        (* Join-on-exit: finish the remaining independent trees so futures
           created by this program remain touchable afterwards (bounded by
           the remaining fuel).  Quiescence ends the drain: a future tree
           parked forever must not spin — but a sleeping one is not
           quiescent: the clock jumps and the drain continues. *)
        if drain_futures && k.live_futures > 0 && !fuel_left > 0 then None
        else Some (Value v)
    | None, None -> if !fuel_left <= 0 then Some Out_of_fuel else None
  in
  (* Quiescent before the main tree delivered: every remaining branch is
     parked on a future that no runnable branch can resolve. *)
  let quiescent () =
    match (k.final, K.diagnosis k) with
    | Some v, _ -> Value v
    | None, None -> Deadlock "no runnable branches"
    | None, Some (n, parts) -> Deadlock (Printf.sprintf "%d branch(es) parked: %s" n parts)
  in
  Fun.protect
    ~finally:(fun () -> cfg.Machine.metrics <- saved_metrics)
    (fun () -> K.drive k ~step ~verdict ~quiescent)

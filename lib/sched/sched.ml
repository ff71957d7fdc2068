open Effect
open Effect.Deep
module Univ = Pcont_util.Univ
module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Kernel = Pcont_kernel.Kernel
open Kernel

exception Dead_controller

exception Expired_pk

exception Not_in_scheduler

exception Deadlock of string

exception Injected_crash
(* delivered at a fiber's suspension point by the [Fcrash] fault *)

type policy =
  | Tree_order
  | Randomized of int64
  | Driven of (int -> int)
      (* systematic exploration: each decision steps exactly one fiber;
         the index is reduced modulo the runnable count *)
  | Driven_pids of (int array -> int)
      (* as Driven, but the decision function sees the runnable fibers'
         node ids in queue order — the hook record/replay needs to pin a
         recorded schedule by pid rather than by position *)

(* Deterministic fault injection: [run ?inject] consults the hook with
   the global slice index before every slice.  Faults are scheduler
   decisions — same schedule + same fault plan = byte-identical trace —
   and each one emits an [E.Crash "inject:..."] marker so the plan can
   be re-extracted from the trace. *)
type fault =
  | Fcrash  (* raise [Injected_crash] at the target fiber's suspension point *)
  | Fwake of string  (* spurious wake: wake everything parked on the resource *)
  | Fdrop of int  (* silently drop one buffered element from the channel *)

(* ------------------------------------------------------------------ *)
(* Untyped scheduler core: every fiber computes a Univ.t.              *)
(* ------------------------------------------------------------------ *)

(* What a wait node resumes on: the return of a spawned process (a
   labeled root), the completion of pcall branches, or the value of a
   controller body evaluated after a capture. *)
type wkind = Wroot of int | Wfork | Wbody

(* A slice ends with the fiber's value, or with the request it performed
   and the continuation that resumes it. *)
type step_result = Sdone of Univ.t | Ssuspended of request * fiber_k

and fiber_k = (Univ.t, step_result) continuation

(* A runnable fiber, as data: its body not yet started, or a suspended
   continuation to resume with a value or an exception. *)
and fiber_step =
  | Start of (unit -> Univ.t)
  | Resume of fiber_k * Univ.t
  | Raise of fiber_k * exn

(* What a suspended fiber waits for, and how it resumes. *)
and swait = { kind : wkind; resume : fiber_k; join : Univ.t array -> Univ.t }

and waitset = (fiber_step, swait, Univ.t) Kernel.waitset

and request =
  | Rspawn of int * (unit -> Univ.t)  (* root label, process body *)
  | Rcontrol of int * (upk -> Univ.t)  (* root label, controller argument *)
  | Rgraft of upk * Univ.t
  | Rpcall of (unit -> Univ.t) list * (Univ.t array -> Univ.t)
  | Rfuture of (unit -> Univ.t) * (fiber_step, swait, Univ.t) Kernel.future
      (* an INDEPENDENT process tree (Section 8's forest): its result is
         stored in the future; control operations cannot cross into it *)
  | Ryield
  | Rsleep of int
      (* park the fiber until the run's virtual clock reaches now+d *)
  | Rabort of int * string * (unit -> Univ.t)
      (* cancellation as declined reinstatement: capture the subtree
         delimited by the labeled root — releasing parked entries — and
         discard it (the invoking fiber included), running the
         replacement body in the root's place.  The string is the
         cancel reason recorded in the trace. *)
  | Rblock of waitset
      (* park the fiber on the waitset until a matching Rwake (or the
         delivery of the owning future) *)
  | Rwake of waitset  (* make every fiber parked on the waitset runnable *)

(* A captured subtree.  [PHole] marks the fiber that invoked the
   controller; it receives the process continuation's argument on graft. *)
and upk = { upk_label : int; upk_tree : ptree; mutable upk_taken : bool }

and ptree =
  | PLeaf of fiber_step
  | PHole of fiber_k
  | PDone
  | PWait of pwait

and pwait = { pw_wait : swait; pw_children : ptree array; pw_results : Univ.t option array }

module K = Kernel.Make (struct
  type leaf = fiber_step

  type wait = swait

  type value = Univ.t

  let prefix = "sched"
end)

type _ Effect.t += Sched : request -> Univ.t Effect.t

let inj_unit, _ = Univ.embed ()

let u_unit = inj_unit ()

(* ------------------------------------------------------------------ *)
(* The innermost run.                                                  *)
(*                                                                     *)
(* The scheduler is cooperative and single-threaded, so user-level     *)
(* code running inside a fiber (channels, spans, user blocking         *)
(* abstractions) reaches the innermost run's state through one         *)
(* pointer, which [run] saves and restores.  Labels and channel ids    *)
(* are allocated per run so traces of identical runs are identical.    *)
(* ------------------------------------------------------------------ *)

(* A channel's per-run id and its Fdrop hook: how to discard one
   buffered element, returning the waitset to wake since dropping frees
   capacity. *)
type chan_hook = { chan_id : int; drop : unit -> waitset option }

(* Hooks are registered only in a run with a fault injector, the only
   source of Fdrop, and held weakly there: a channel keeps its own hook
   alive, so one that becomes unreachable leaves the registry instead
   of living until the run ends.  An unreachable channel has no parked
   senders (their continuations would reach it), so forgetting its hook
   changes no Fdrop outcome.  A weak table alone is not enough for long
   runs: its slots track how many channels die between collections, so
   it still grows with run length (1.6x live words from 10^5 to 10^6
   fresh channels). *)
module Hooks = Weak.Make (struct
  type t = chan_hook

  let equal a b = a.chan_id = b.chan_id

  let hash h = h.chan_id
end)

type ctx = {
  k : K.t;
  mutable labels : int;
  mutable chan_ids : int;
  hooks : Hooks.t option;  (* [Some] iff the run injects faults *)
}

let new_ctx ?inject k =
  { k; labels = 0; chan_ids = 0; hooks = Option.map (fun _ -> Hooks.create 16) inject }

(* Outside any run. *)
let cur =
  ref
    (new_ctx
       (K.create ~policy:Tree
          ~resume_wait:(fun _ _ -> assert false)
          ~on_wake:ignore
          (Start (fun () -> u_unit))))

let obs () = !cur.k.obs

let self_pid () = !cur.k.cur_pid

let now () = !cur.k.clock

let chan_hook drop =
  let c = !cur in
  c.chan_ids <- c.chan_ids + 1;
  let h = { chan_id = c.chan_ids; drop } in
  Option.iter (fun hooks -> Hooks.add hooks h) c.hooks;
  h

let chan_id h = h.chan_id

(* Control points (labels and forks) and node count of a captured
   subtree — the quantities the paper's complexity claim is stated in. *)
let rec ptree_control_points = function
  | PLeaf _ | PHole _ | PDone -> 0
  | PWait w ->
      (match w.pw_wait.kind with Wroot _ -> 2 | Wfork | Wbody -> 1)
      + Array.fold_left (fun n t -> n + ptree_control_points t) 0 w.pw_children

let rec ptree_size = function
  | PLeaf _ | PHole _ | PDone -> 1
  | PWait w -> 1 + Array.fold_left (fun n t -> n + ptree_size t) 0 w.pw_children

let first vs = vs.(0)

let run ?(policy = Tree_order) ?obs ?inject (type a) (main : unit -> a) : a =
  let inj_a, prj_a = Univ.embed () in
  (* [crash]: an injected crash for this fiber, raised at its suspension
     point (catchable by its own try/with); a fiber that has never run
     yet crashes before its body — spawn-failure semantics. *)
  let run_step crash = function
    | Start body ->
        match_with
          (fun () ->
            if crash then raise Injected_crash;
            body ())
          ()
          {
            retc = (fun v -> Sdone v);
            exnc = raise;
            effc =
              (fun (type b) (eff : b Effect.t) ->
                match eff with
                | Sched req ->
                    Some (fun (k : (b, step_result) continuation) -> Ssuspended (req, k))
                | _ -> None);
          }
    | Resume (fk, v) -> if crash then discontinue fk Injected_crash else continue fk v
    | Raise (fk, exn) -> discontinue fk exn
  in
  let k =
    K.create ?obs
      ~policy:
        (match policy with
        | Tree_order -> Tree
        | Randomized seed -> Seeded seed
        | Driven pick -> Pick pick
        | Driven_pids pick -> Pick_pids pick)
      ~resume_wait:(fun w vs -> Resume (w.resume, w.join vs))
      ~on_wake:ignore
      (Start (fun () -> inj_a (main ())))
  in
  let ctx = new_ctx ?inject k in
  let failure = ref None in
  (* Global slice index, the unit fault placements are expressed in. *)
  let nslices = ref 0 in

  (* The nearest root labeled [label] above [n], within its tree. *)
  let rec controller_root label n =
    match n.parent with
    | Ptop | Pfuture _ -> None
    | Pchild (p, _) -> (
        match p.body with
        | Nwait w when w.wk.kind = Wroot label -> Some (p, w)
        | _ -> controller_root label p)
  in
  (* Raise inside the invoking fiber so user code can observe
     Dead_controller, mirroring the direct-style embedding. *)
  let dead_controller n fk label =
    (match obs with
    | None -> ()
    | Some o -> Obs.emit o (E.Invalid_controller { pid = n.nid; label }));
    n.body <- Nleaf (Raise (fk, Dead_controller))
  in
  (* The root's subtree is replaced by a fresh fiber running [body]; its
     value becomes the root's. *)
  let replace_subtree p w body kind =
    K.fork k p { kind = Wbody; resume = w.wk.resume; join = first } [ Start body ] kind
  in

  (* Prune the subtree delimited by the nearest root labeled [label] above
     the invoking fiber and hand it, as a process continuation, to the
     controller's body, which runs in the root's former position. *)
  let do_capture n fk label body_fn =
    match controller_root label n with
    | None -> dead_controller n fk label
    | Some (p, w) ->
        K.pruned k;
        let rec ptree_of m =
          if m == n then PHole fk
          else
            match m.body with
            | Nleaf s -> PLeaf s
            | Nparked e ->
                (* Pruning a parked waiter withdraws its entry and captures
                   it as a runnable leaf: on graft it resumes and re-checks
                   its blocking condition — parking is always a re-check
                   loop, so a spurious wake-up is harmless. *)
                K.unpark e;
                PLeaf e.we_leaf
            | Ndone -> PDone
            | Nwait w ->
                PWait
                  {
                    pw_wait = w.wk;
                    pw_children = Array.map ptree_of w.children;
                    pw_results = Array.copy w.results;
                  }
        in
        let tree = ptree_of w.children.(0) in
        (match obs with
        | None -> ()
        | Some o ->
            let cp = ptree_control_points tree in
            let size = ptree_size tree in
            Obs.observe o "sched.capture.control-points" cp;
            Obs.observe o "sched.capture.size" size;
            Obs.emit o
              (E.Capture
                 { pid = n.nid; label; root_pid = p.nid; control_points = cp; size }));
        let upk = { upk_label = label; upk_tree = tree; upk_taken = false } in
        replace_subtree p w (fun () -> body_fn upk) "controller"
  in

  (* Cancellation as declined reinstatement: prune the subtree under the
     nearest root labeled [label] exactly as [do_capture] would, but
     discard it.  The invoking fiber is part of it ([abort] never
     returns); the replacement body runs in the root's former position. *)
  let do_abort n fk label reason replacement =
    match controller_root label n with
    | None -> dead_controller n fk label
    | Some (p, w) ->
        K.pruned k;
        (* Pre-order sweep: collect live pids (the Cancel event's payload,
           exactly what an invariant checker must mark dead) and release
           parked entries.  The invoking fiber's body is its consumed leaf
           step, so the Nleaf case covers it. *)
        let cancelled = ref [] in
        let rec sweep m =
          match m.body with
          | Ndone -> ()
          | Nleaf _ -> cancelled := m.nid :: !cancelled
          | Nparked e ->
              K.unpark e;
              cancelled := m.nid :: !cancelled
          | Nwait wc ->
              cancelled := m.nid :: !cancelled;
              Array.iter sweep wc.children
        in
        sweep w.children.(0);
        let pids = Array.of_list (List.rev !cancelled) in
        (match obs with
        | None -> ()
        | Some o ->
            Obs.observe o "sched.cancel.pids" (Array.length pids);
            Obs.emit o (E.Cancel { pid = n.nid; scope = p.nid; reason; pids }));
        replace_subtree p w replacement "cancel"
  in

  (* Graft a captured subtree onto the invoking fiber: the fiber waits (as
     a reinstated root) for the subtree's result; the capture point inside
     receives [v]; every captured branch becomes runnable.  Rebuilt fibers
     adopt the reinstating fiber's span: the graft is what made them
     runnable again. *)
  let do_graft n fk upk v =
    if upk.upk_taken then n.body <- Nleaf (Raise (fk, Expired_pk))
    else begin
      upk.upk_taken <- true;
      (match obs with
      | None -> ()
      | Some o ->
          Obs.emit o
            (E.Reinstate
               { pid = n.nid; label = upk.upk_label; size = ptree_size upk.upk_tree }));
      let rec rebuild parent pt =
        let m = K.node k parent Ndone in
        (match pt with
        | PHole hole_k -> m.body <- Nleaf (Resume (hole_k, v))
        | PLeaf s -> m.body <- Nleaf s
        | PDone -> ()
        | PWait pw ->
            K.wait_on m pw.pw_wait (Array.copy pw.pw_results) (fun parent i ->
                rebuild parent pw.pw_children.(i)));
        m
      in
      K.wait_on n { kind = Wroot upk.upk_label; resume = fk; join = first } [| None |]
        (fun parent _ -> rebuild parent upk.upk_tree);
      K.grafted k n
    end
  in

  (* Apply one injected fault just before the slice it targets.  The
     marker event precedes the slice's begin event, so a schedule
     re-extracted from the trace re-injects at the same slice index.
     True for a crash of the fiber about to step. *)
  let apply_fault n fault =
    let pid, marker =
      match fault with
      | Fcrash -> (n.nid, "inject:crash")
      | Fwake res -> (-1, "inject:wake:" ^ res)
      | Fdrop chan -> (-1, "inject:drop:" ^ string_of_int chan)
    in
    (match obs with None -> () | Some o -> Obs.emit o (E.Crash { pid; fault = marker }));
    match fault with
    | Fcrash -> true
    | Fwake res ->
        (* Parking is a re-check loop, so correct waiters re-park;
           anything that stays woken revealed a missing re-check. *)
        K.wake_named k res;
        false
    | Fdrop chan ->
        let probe = { chan_id = chan; drop = (fun () -> None) } in
        (match Option.bind ctx.hooks (fun hooks -> Hooks.find_opt hooks probe) with
        | None -> ()
        | Some h -> Option.iter (K.wake_ws k) (h.drop ()));
        false
  in

  (* One slice: run the fiber to its next request, which is charged one
     unit of virtual time — the native scheduler does not meter fiber
     work. *)
  let step n leaf =
    let crash =
      match inject with
      | None -> false
      | Some f -> ( match f !nslices with Some fault -> apply_fault n fault | None -> false)
    in
    incr nslices;
    K.begin_slice k n;
    (match run_step crash leaf with
    | Sdone v ->
        K.deliver k n v;
        (* the run ends with the main tree: nothing else steps *)
        if Option.is_some k.final then K.halt k
    | Ssuspended (req, fk) -> (
        match req with
        | Ryield -> n.body <- Nleaf (Resume (fk, u_unit))
        | Rsleep d -> K.sleep k n d (Resume (fk, u_unit))
        | Rabort (label, reason, replacement) -> do_abort n fk label reason replacement
        | Rspawn (label, body) ->
            K.fork k n { kind = Wroot label; resume = fk; join = first } [ Start body ] "process"
        | Rpcall (thunks, join) ->
            K.fork k n { kind = Wfork; resume = fk; join }
              (List.map (fun t -> Start t) thunks) "branch"
        | Rblock ws -> K.park k n ws (Resume (fk, u_unit))
        | Rwake ws ->
            K.wake_ws k ws;
            n.body <- Nleaf (Resume (fk, u_unit))
        | Rfuture (body, fut) ->
            K.plant_future k n fut (Start body);
            n.body <- Nleaf (Resume (fk, u_unit))
        | Rcontrol (label, body_fn) -> do_capture n fk label body_fn
        | Rgraft (upk, v) -> do_graft n fk upk v)
    | exception e ->
        failure := Some e;
        K.halt k);
    K.end_slice k n 1
  in
  let verdict () =
    match (k.final, !failure) with
    | Some v, _ -> Some (match prj_a v with Some a -> a | None -> assert false)
    | None, Some e -> raise e
    | None, None -> None
  in
  (* Quiescence = deadlock: every remaining fiber is parked on a resource
     nobody left can signal. *)
  let quiescent () =
    raise
      (Deadlock
         (match K.diagnosis k with
         | None -> "deadlock: no runnable fibers"
         | Some (n, parts) -> Printf.sprintf "deadlock: %d fiber(s) parked: %s" n parts))
  in
  let saved = !cur in
  cur := ctx;
  Fun.protect ~finally:(fun () -> cur := saved) (fun () -> K.drive k ~step ~verdict ~quiescent)

(* ------------------------------------------------------------------ *)
(* Typed front end.                                                    *)
(* ------------------------------------------------------------------ *)

type 'r controller = {
  c_label : int;
  c_inj : 'r -> Univ.t;
  c_prj : Univ.t -> 'r option;
}

type ('a, 'r) pk = {
  p_upk : upk;
  p_inj_a : 'a -> Univ.t;
  p_prj_r : Univ.t -> 'r option;
}

let perform_sched req =
  try perform (Sched req)
  with Effect.Unhandled (Sched _) -> raise Not_in_scheduler

let get_exn prj u = match prj u with Some v -> v | None -> assert false

let spawn (type r) (f : r controller -> r) : r =
  let c_inj, c_prj = Univ.embed () in
  let ctx = !cur in
  ctx.labels <- ctx.labels + 1;
  let c = { c_label = ctx.labels; c_inj; c_prj } in
  get_exn c_prj (perform_sched (Rspawn (c.c_label, fun () -> c_inj (f c))))

let control (type a) c (body : (a, _) pk -> _) : a =
  let p_inj_a, prj_a = Univ.embed () in
  let body_u upk = c.c_inj (body { p_upk = upk; p_inj_a; p_prj_r = c.c_prj }) in
  get_exn prj_a (perform_sched (Rcontrol (c.c_label, body_u)))

let resume pk v =
  get_exn pk.p_prj_r (perform_sched (Rgraft (pk.p_upk, pk.p_inj_a v)))

let pcall (type a) (thunks : (unit -> a) list) : a list =
  match thunks with
  | [] -> []
  | _ ->
      let inj, prj = Univ.embed () in
      let inj_l, prj_l = Univ.embed () in
      let bodies = List.map (fun t () -> inj (t ())) thunks in
      let join vs = inj_l (List.map (get_exn prj) (Array.to_list vs)) in
      get_exn prj_l (perform_sched (Rpcall (bodies, join)))

let pcall2 (type a b) (ta : unit -> a) (tb : unit -> b) : a * b =
  let inj_a, prj_a = Univ.embed () in
  let inj_b, prj_b = Univ.embed () in
  let inj_p, prj_p = Univ.embed () in
  let join vs = inj_p (get_exn prj_a vs.(0), get_exn prj_b vs.(1)) in
  get_exn prj_p
    (perform_sched (Rpcall ([ (fun () -> inj_a (ta ())); (fun () -> inj_b (tb ())) ], join)))

let yield () = ignore (perform_sched Ryield)

let sleep d = ignore (perform_sched (Rsleep d))

let abort (type r) (c : r controller) ~reason (f : unit -> r) : 'a =
  ignore (perform_sched (Rabort (c.c_label, reason, fun () -> c.c_inj (f ()))));
  (* The scheduler discards this fiber's continuation: the replacement
     body runs at the controller root instead, so control never returns
     here.  (A dead controller label raises via [discontinue] above.) *)
  assert false

(* ------------------------------------------------------------------ *)
(* Causal spans.                                                       *)
(* ------------------------------------------------------------------ *)

module Span = struct
  let current () = !cur.k.cur_span

  let adopt s = if s >= 0 then K.set_span !cur.k s

  let with_ name f =
    let k = !cur.k in
    match k.obs with
    | None -> f ()
    | Some o ->
        let parent = k.cur_span in
        let id = Obs.Span.begin_ o ~pid:k.cur_pid ~parent name in
        K.set_span k id;
        Fun.protect
          ~finally:(fun () ->
            (* runs on exception unwind too, so a crashing fiber still
               closes its span before the crash propagates *)
            Obs.Span.end_ o ~pid:k.cur_pid id;
            K.set_span k parent)
          f
end

(* ------------------------------------------------------------------ *)
(* Parked waiters.                                                     *)
(* ------------------------------------------------------------------ *)

module Waitset = struct
  type t = waitset

  let create = Kernel.waitset

  let name ws = ws.ws_name

  let parked = Kernel.parked_count
end

let block ws = ignore (perform_sched (Rblock ws))

let wake ws =
  (* Performing the effect costs a suspension, so skip it when nobody has
     parked since the last wake — the common uncontended case stays
     effect-free.  A waiter that left without a wake (captured, cancelled
     or spuriously woken) still costs the suspension: skipping it too
     would move slices, and with them the virtual clock and every trace. *)
  if ws.ws_waited then ignore (perform_sched (Rwake ws))

(* ------------------------------------------------------------------ *)
(* Futures: independent trees in the forest (Section 8).               *)
(* ------------------------------------------------------------------ *)

type 'a future = { f_fut : K.future; f_prj : Univ.t -> 'a option }

let future (type a) (thunk : unit -> a) : a future =
  let inj, prj = Univ.embed () in
  let fut = Kernel.future () in
  ignore (perform_sched (Rfuture ((fun () -> inj (thunk ())), fut)));
  { f_fut = fut; f_prj = prj }

let poll fut = Option.map (get_exn fut.f_prj) fut.f_fut.fvalue

(* Touch parks on the future's waitset; the scheduler wakes the parked
   fibers when the future's tree delivers its value.  A parked toucher is
   still capturable: pruning it into a process continuation invalidates
   its waitset entry and re-captures it as a runnable leaf, so on graft
   it resumes here and re-checks the cell. *)
let rec touch fut =
  match poll fut with
  | Some v -> v
  | None ->
      block fut.f_fut.fws;
      touch fut

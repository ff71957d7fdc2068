module Obs = Pcont_obs.Obs
module E = Pcont_obs.Obs.Event
module Xorshift = Pcont_util.Xorshift

(* The live process forest: the main tree plus one independent tree per
   future (Section 8).  ['l] is the backend's runnable leaf, ['w] what a
   wait node resumes with once its children have delivered, ['v] the
   values they deliver. *)
type ('l, 'w, 'v) node = {
  nid : int;
  mutable parent : ('l, 'w, 'v) parent;
  mutable body : ('l, 'w, 'v) body;
  mutable span : int;
  mutable woke : int;
}

and ('l, 'w, 'v) parent =
  | Ptop
  | Pfuture of ('l, 'w, 'v) future
  | Pchild of ('l, 'w, 'v) node * int

and ('l, 'w, 'v) body =
  | Nleaf of 'l
  | Nwait of ('l, 'w, 'v) nwait
  | Nparked of ('l, 'w, 'v) entry
  | Ndone

and ('l, 'w, 'v) nwait = {
  wk : 'w;
  children : ('l, 'w, 'v) node array;
  results : 'v option array;
  mutable pending : int;
}

and ('l, 'w, 'v) future = {
  mutable fvalue : 'v option;
  fws : ('l, 'w, 'v) waitset;
}

and ('l, 'w, 'v) waitset = {
  ws_name : string;
  mutable ws_first : ('l, 'w, 'v) entry option;
  mutable ws_waited : bool;
}

and ('l, 'w, 'v) entry = {
  we_ws : ('l, 'w, 'v) waitset;
  we_node : ('l, 'w, 'v) node;
  we_leaf : 'l;
  we_round : int;
  mutable we_prev : ('l, 'w, 'v) entry;
  mutable we_next : ('l, 'w, 'v) entry;
  mutable we_wprev : ('l, 'w, 'v) entry;
  mutable we_wnext : ('l, 'w, 'v) entry;
}

type policy =
  | Tree
  | Seeded of int64
  | Pick of (int -> int)
  | Pick_pids of (int array -> int)

let waitset name = { ws_name = name; ws_first = None; ws_waited = false }

let future () = { fvalue = None; fws = waitset "future" }

let parked_count ws =
  match ws.ws_first with
  | None -> 0
  | Some first ->
      let rec count n e = if e == first then n else count (n + 1) e.we_wnext in
      count 1 first.we_wnext

(* A live entry is linked into the registry, whose sentinel is never
   live; an unlinked entry points at itself. *)
let live e = e.we_next != e

(* Sleeping fibers as a binary min-heap keyed (deadline, insertion seq).
   The seq tiebreak makes equal deadlines pop in insertion order — the
   FIFO-among-equals order of a sorted list — while insert and pop stay
   O(log n).  The load scenarios park ~10^5 concurrent sleepers. *)
module Heap = struct
  type 'a t = {
    mutable a : (int * int * 'a) option array;
    mutable n : int;
    mutable seq : int;
  }

  let create () = { a = Array.make 64 None; n = 0; seq = 0 }

  let less a i j =
    match (a.(i), a.(j)) with
    | Some (di, si, _), Some (dj, sj, _) -> di < dj || (di = dj && si < sj)
    | _ -> assert false

  let swap a i j =
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t

  let push h d x =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) None in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    let a = h.a in
    a.(h.n) <- Some (d, h.seq, x);
    h.seq <- h.seq + 1;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && less a !i ((!i - 1) / 2) do
      swap a !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let top h = match h.a.(0) with Some (d, _, x) -> (d, x) | None -> assert false

  let pop h =
    let a = h.a in
    let x = snd (top h) in
    h.n <- h.n - 1;
    a.(0) <- a.(h.n);
    a.(h.n) <- None;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && less a l !m then m := l;
      if r < h.n && less a r !m then m := r;
      if !m <> !i then begin
        swap a !i !m;
        i := !m
      end
      else continue := false
    done;
    x
end

type 'a heap = 'a Heap.t

(* Never fed: stands in for the handle's metrics when a run has none, so
   the hot paths hold resolved series either way. *)
let no_metrics = lazy (Obs.Metrics.create ())

module type BACKEND = sig
  type leaf

  type wait

  type value

  val prefix : string
end

module Make (B : BACKEND) = struct
  type nonrec node = (B.leaf, B.wait, B.value) node

  type nonrec waitset = (B.leaf, B.wait, B.value) waitset

  type nonrec entry = (B.leaf, B.wait, B.value) entry

  type nonrec future = (B.leaf, B.wait, B.value) future

  type nonrec parent = (B.leaf, B.wait, B.value) parent

  type nonrec body = (B.leaf, B.wait, B.value) body

  type t = {
    obs : Obs.t option;
    policy : policy;
    rng : Xorshift.t option;
    resume_wait : B.wait -> B.value array -> B.leaf;
    on_wake : unit -> unit;
    root : node;
    mutable queue : node list;
    mutable born : node list;
    mutable new_trees : node list;
    mutable final : B.value option;
    mutable halted : bool;
    mutable next_id : int;
    mutable rounds : int;
    mutable prunes : int;
    mutable clock : int;
    mutable cur_pid : int;
    mutable cur_span : int;
    mutable live_futures : int;
    parked : entry;
    timer_ws : waitset;
    timers : entry heap;
    s_fuel : Obs.Metrics.Sketch.t;
    s_runq : Obs.Metrics.Sketch.t;
    s_park : Obs.Metrics.Sketch.t;
    s_wake_run : Obs.Metrics.Sketch.t;
  }

  let create ?obs ~policy ~resume_wait ~on_wake leaf =
    let root = { nid = 0; parent = Ptop; body = Nleaf leaf; span = -1; woke = -1 } in
    let timer_ws = waitset "timer" in
    (* the registry's sentinel: never live, never woken *)
    let rec parked =
      { we_ws = timer_ws; we_node = root; we_leaf = leaf; we_round = 0;
        we_prev = parked; we_next = parked; we_wprev = parked; we_wnext = parked }
    in
    let mx = match obs with Some o -> Obs.metrics o | None -> Lazy.force no_metrics in
    let series name = Obs.Metrics.series mx (B.prefix ^ name) in
    (match obs with
    | None -> ()
    | Some o -> Obs.emit o (E.Spawn { pid = 0; parent = -1; kind = "root" }));
    {
      obs; policy; resume_wait; on_wake; root; parked; timer_ws;
      rng = (match policy with Seeded s -> Some (Xorshift.create s) | _ -> None);
      queue = [ root ]; born = []; new_trees = []; final = None; halted = false;
      next_id = 0; rounds = 0; prunes = 0; clock = 0; cur_pid = 0; cur_span = -1;
      live_futures = 0; timers = Heap.create ();
      s_fuel = series ".slice.fuel"; s_runq = series ".runq.depth";
      s_park = series ".park.rounds"; s_wake_run = series ".wake.run";
    }

  let set_born k b = k.born <- b

  let halt k = k.halted <- true

  let pruned k = k.prunes <- k.prunes + 1

  let set_span k s = k.cur_span <- s

  (* A fresh node; it inherits the stepping fiber's span, so fork, future,
     controller and graft children all carry their creator's request. *)
  let node k parent body =
    k.next_id <- k.next_id + 1;
    { nid = k.next_id; parent; body; span = k.cur_span; woke = -1 }

  (* Make [n] a wait node over [child (Pchild (n, i)) i] for every slot;
     slots already filled in [results] are not pending. *)
  let wait_on n wk results child =
    let pending = Array.fold_left (fun c r -> if Option.is_none r then c + 1 else c) 0 results in
    let w = { wk; children = Array.make (Array.length results) n; results; pending } in
    n.body <- Nwait w;
    Array.iteri (fun i _ -> w.children.(i) <- child (Pchild (n, i)) i) results

  let fork k n wk leaves kind =
    let count = List.length leaves in
    let w = { wk; children = Array.make count n; results = Array.make count None; pending = count } in
    n.body <- Nwait w;
    List.iteri
      (fun i leaf ->
        let c = node k (Pchild (n, i)) (Nleaf leaf) in
        w.children.(i) <- c;
        match k.obs with
        | None -> ()
        | Some o -> Obs.emit o (E.Spawn { pid = c.nid; parent = n.nid; kind }))
      leaves;
    k.born <- Array.to_list w.children

  let plant_future k n fut leaf =
    let f = node k (Pfuture fut) (Nleaf leaf) in
    (* prepended here, reversed at round end: future trees keep their
       creation order at the back of the forest *)
    k.new_trees <- f :: k.new_trees;
    k.live_futures <- k.live_futures + 1;
    match k.obs with
    | None -> ()
    | Some o -> Obs.emit o (E.Spawn { pid = f.nid; parent = n.nid; kind = "future" })

  let rec collect_leaves acc n =
    match n.body with
    | Nleaf _ -> n :: acc
    | Nparked _ | Ndone -> acc
    | Nwait w -> Array.fold_left collect_leaves acc w.children

  (* [n] has just become a wait node over a grafted subtree: its leaves
     are runnable, and every rebuilt node is announced in one batch event,
     parents before children. *)
  let grafted k n =
    k.born <- List.rev (collect_leaves [] n);
    match (k.obs, n.body) with
    | Some o, Nwait w ->
        let acc = ref [] in
        let rec collect parent m =
          acc := (m.nid, parent) :: !acc;
          match m.body with
          | Nwait w -> Array.iter (collect m.nid) w.children
          | Nleaf _ | Nparked _ | Ndone -> ()
        in
        Array.iter (collect n.nid) w.children;
        Obs.emit o
          (E.Spawn_batch { pid = n.nid; kind = "graft"; nodes = Array.of_list (List.rev !acc) })
    | _ -> ()

  (* ---------------------------------------------------------------- *)
  (* Parking.  Every live entry sits in one registry, a circular       *)
  (* doubly-linked list in park order, and, unless it sleeps, in its   *)
  (* waitset's own ring, also in park order.  It leaves both when      *)
  (* woken, expired, captured or cancelled — so memory follows the     *)
  (* parked fibers, not the run's history.                             *)
  (* ---------------------------------------------------------------- *)

  let register k ws n leaf =
    let s = k.parked in
    let rec e =
      { we_ws = ws; we_node = n; we_leaf = leaf; we_round = k.rounds;
        we_prev = s.we_prev; we_next = s; we_wprev = e; we_wnext = e }
    in
    s.we_prev.we_next <- e;
    s.we_prev <- e;
    n.body <- Nparked e;
    (match k.obs with
    | None -> ()
    | Some o -> Obs.emit o (E.Park { pid = n.nid; resource = ws.ws_name }));
    e

  let park k n ws leaf =
    let e = register k ws n leaf in
    ws.ws_waited <- true;
    match ws.ws_first with
    | None -> ws.ws_first <- Some e
    | Some first ->
        let last = first.we_wprev in
        e.we_wprev <- last;
        e.we_wnext <- first;
        last.we_wnext <- e;
        first.we_wprev <- e

  (* Timer entries are in no waitset's ring: sleepers wake only by
     expiry, or leave through capture/cancel like any parked fiber. *)
  let sleep k n d leaf = Heap.push k.timers (k.clock + max d 0) (register k k.timer_ws n leaf)

  let unpark e =
    e.we_prev.we_next <- e.we_next;
    e.we_next.we_prev <- e.we_prev;
    e.we_prev <- e;
    e.we_next <- e;
    let ws = e.we_ws and next = e.we_wnext in
    (match ws.ws_first with
    | Some first when first == e -> ws.ws_first <- (if next == e then None else Some next)
    | _ -> ());
    e.we_wprev.we_wnext <- next;
    next.we_wprev <- e.we_wprev

  (* [sample]: feed the park-latency distribution (not for spurious wakes) *)
  let wake_entry k ~sample e =
    unpark e;
    k.on_wake ();
    e.we_node.body <- Nleaf e.we_leaf;
    match k.obs with
    | None -> ()
    | Some o ->
        if sample then Obs.Metrics.Sketch.observe k.s_park (k.rounds - e.we_round);
        e.we_node.woke <- k.clock;
        Obs.emit o (E.Wake { pid = e.we_node.nid; resource = e.we_ws.ws_name })

  (* Woken fibers join [born] oldest first, ahead of the step's other
     successors, so the trace shows them in the order they will run.
     Each wake unlinks the waitset's oldest entry, so its ring drains in
     park order. *)
  let wake_ws k ws =
    let rec drain woken =
      match ws.ws_first with
      | None -> List.rev_append woken k.born
      | Some e ->
          wake_entry k ~sample:true e;
          drain (e.we_node :: woken)
    in
    ws.ws_waited <- false;
    k.born <- drain []

  let live_parked k =
    let rec go acc e = if e == k.parked then acc else go (e :: acc) e.we_prev in
    go [] k.parked.we_prev

  let wake_named k name =
    let woken = List.filter (fun e -> e.we_ws.ws_name = name) (live_parked k) in
    List.iter (wake_entry k ~sample:false) woken;
    k.born <- List.map (fun e -> e.we_node) woken @ k.born

  let deliver k n v =
    n.body <- Ndone;
    (match k.obs with None -> () | Some o -> Obs.emit o (E.Exit { pid = n.nid }));
    match n.parent with
    | Ptop -> k.final <- Some v
    | Pfuture fut ->
        fut.fvalue <- Some v;
        k.live_futures <- k.live_futures - 1;
        wake_ws k fut.fws
    | Pchild (p, slot) -> (
        match p.body with
        | Nwait w ->
            w.results.(slot) <- Some v;
            w.pending <- w.pending - 1;
            if w.pending = 0 then begin
              p.body <- Nleaf (k.resume_wait w.wk (Array.map Option.get w.results));
              k.born <- [ p ]
            end
        | _ -> assert false)

  (* ---------------------------------------------------------------- *)
  (* Slices.                                                           *)
  (* ---------------------------------------------------------------- *)

  let begin_slice k n =
    k.cur_pid <- n.nid;
    k.cur_span <- n.span;
    match k.obs with
    | None -> ()
    | Some o ->
        Obs.emit o (E.Slice_begin { pid = n.nid });
        (* wake-to-run latency: the run-queue delay *)
        if n.woke >= 0 then begin
          Obs.Metrics.Sketch.observe k.s_wake_run (k.clock - n.woke);
          n.woke <- -1
        end

  (* The leaf keeps its span context for its next slice.  The clock
     advances by the fuel used, at least 1, with or without a handle, so
     timers never depend on observation. *)
  let end_slice k n used =
    n.span <- k.cur_span;
    let dt = if used > 0 then used else 1 in
    k.clock <- k.clock + dt;
    match k.obs with
    | None -> ()
    | Some o ->
        Obs.advance o dt;
        Obs.Metrics.Sketch.observe k.s_fuel used;
        Obs.emit o (E.Slice_end { pid = n.nid; fuel = used })

  (* ---------------------------------------------------------------- *)
  (* Scheduling rounds.                                                *)
  (* ---------------------------------------------------------------- *)

  let rec attached_walk k n =
    match n.parent with
    | Ptop -> n == k.root
    | Pfuture _ -> ( match n.body with Ndone -> false | _ -> true)
    | Pchild (p, i) -> (
        match p.body with
        | Nwait w -> i < Array.length w.children && w.children.(i) == n && attached_walk k p
        | _ -> false)

  (* Only captures detach nodes (grafts reuse detached trees), so until
     one has happened every non-[Ndone] node is attached.  A finished root
     reports detached here, but callers always also require a leaf. *)
  let attached k n =
    if k.prunes = 0 then match n.body with Ndone -> false | _ -> true
    else attached_walk k n

  let is_leaf n = match n.body with Nleaf _ -> true | _ -> false

  let live_leaves k = Array.of_list (List.filter (fun n -> is_leaf n && attached k n) k.queue)

  (* The nodes that take a stepped node's place in the queue, reversed
     onto [acc]: itself if still a runnable leaf, then whatever the step
     made runnable.  A subtree's leaves are contiguous in tree order, so
     splicing them here keeps the queue in the order a full forest walk
     would produce. *)
  let successors k n acc =
    match k.born with
    | [] -> if is_leaf n then n :: acc else acc
    | b -> List.rev_append b (if is_leaf n && attached k n then n :: acc else acc)

  (* One round over the queue of runnable leaves.  Stale entries (pruned
     by a capture, or no longer leaves) are dropped as they are met, so a
     round is O(runnable), not O(forest). *)
  let round k step =
    k.rounds <- k.rounds + 1;
    (match k.obs with
    | None -> ()
    | Some _ -> Obs.Metrics.Sketch.observe k.s_runq (List.length k.queue));
    k.new_trees <- [];
    (match k.policy with
    | (Pick _ | Pick_pids _) as driven ->
        (* one decision steps one leaf; the pick sees the exact live count *)
        let arr = live_leaves k in
        let count = Array.length arr in
        if count = 0 then k.queue <- []
        else begin
          let raw =
            match driven with
            | Pick pick -> pick count
            | Pick_pids pick -> pick (Array.map (fun n -> n.nid) arr)
            | Tree | Seeded _ -> assert false
          in
          (* reduced modulo the live count, so any decision is valid *)
          let idx = ((raw mod count) + count) mod count in
          let n = arr.(idx) in
          k.born <- [];
          (if (not k.halted) && attached k n then
             match n.body with Nleaf s -> step n s | _ -> ());
          let before = Array.to_list (Array.sub arr 0 idx) in
          let after = Array.to_list (Array.sub arr (idx + 1) (count - idx - 1)) in
          k.queue <- before @ List.rev_append (successors k n []) after
        end
    | Tree ->
        (* one fused pass: compact while stepping, replacing each stepped
           position by its successors in place *)
        let rec go acc = function
          | [] -> k.queue <- List.rev acc
          | n :: rest -> (
              match n.body with
              | Nleaf s when attached k n ->
                  if not k.halted then begin
                    k.born <- [];
                    step n s;
                    go (successors k n acc) rest
                  end
                  else go (n :: acc) rest
              | _ -> go acc rest)
        in
        go [] k.queue
    | Seeded _ ->
        (* only the processing order is shuffled, over exactly the live
           leaves; successors still land in their tree-order bucket,
           reversed *)
        let arr = live_leaves k in
        let count = Array.length arr in
        let buckets = Array.make (max count 1) [] in
        let order = Array.init count (fun i -> i) in
        Option.iter (fun g -> Xorshift.shuffle g order) k.rng;
        Array.iter
          (fun i ->
            let n = arr.(i) in
            k.born <- [];
            match n.body with
            | Nleaf s when attached k n ->
                if not k.halted then begin
                  step n s;
                  buckets.(i) <- successors k n []
                end
                else buckets.(i) <- [ n ]
            | _ -> buckets.(i) <- [])
          order;
        k.queue <- Array.fold_right List.rev_append buckets []);
    if k.new_trees <> [] then k.queue <- k.queue @ List.rev k.new_trees

  (* Wake every live sleeper whose deadline has come, in (deadline, park)
     order.  Runs between rounds, so appending to the queue is safe. *)
  let expire_due k =
    let woken = ref [] in
    while k.timers.n > 0 && fst (Heap.top k.timers) <= k.clock do
      let e = Heap.pop k.timers in
      if live e then begin
        wake_entry k ~sample:true e;
        woken := e.we_node :: !woken
      end
    done;
    if !woken <> [] then k.queue <- k.queue @ List.rev !woken

  (* Quiescent with a live timer pending: jump the clock to the earliest
     live deadline instead of declaring deadlock, so timeouts stay a
     liveness backstop.  Dead (captured) sleepers on top are discarded. *)
  let jump_clock k =
    while k.timers.n > 0 && not (live (snd (Heap.top k.timers))) do
      ignore (Heap.pop k.timers)
    done;
    k.timers.n > 0
    &&
    let d = fst (Heap.top k.timers) in
    let delta = d - k.clock in
    k.clock <- d;
    (match k.obs with Some o when delta > 0 -> Obs.advance o delta | _ -> ());
    true

  let rec drive k ~step ~verdict ~quiescent =
    match verdict () with
    | Some r -> r
    | None ->
        expire_due k;
        if k.queue <> [] then begin
          round k step;
          drive k ~step ~verdict ~quiescent
        end
        else if jump_clock k then drive k ~step ~verdict ~quiescent
        else begin
          (match (k.final, k.obs) with
          | None, Some o -> Obs.emit o (E.Deadlock { parked = List.length (live_parked k) })
          | _ -> ());
          quiescent ()
        end

  (* Every live parked fiber by resource, each with its root-to-fiber
     path, so a deadlock names where in the computation each one hangs. *)
  let diagnosis k =
    match live_parked k with
    | [] -> None
    | live ->
        let path n =
          let rec climb acc m =
            match m.parent with
            | Ptop | Pfuture _ -> m.nid :: acc
            | Pchild (p, _) -> climb (m.nid :: acc) p
          in
          climb [] n |> List.map string_of_int |> String.concat ">"
        in
        let tally = Hashtbl.create 7 in
        List.iter
          (fun e ->
            let name = e.we_ws.ws_name in
            let ps = try Hashtbl.find tally name with Not_found -> [] in
            Hashtbl.replace tally name (path e.we_node :: ps))
          live;
        let parts =
          Hashtbl.fold (fun name ps acc -> (name, List.rev ps) :: acc) tally []
          |> List.sort compare
          |> List.map (fun (name, ps) ->
                 Printf.sprintf "%d on %s (paths %s)" (List.length ps) name
                   (String.concat ", " ps))
        in
        Some (List.length live, String.concat ", " parts)
end

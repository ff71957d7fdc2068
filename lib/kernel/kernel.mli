(** The scheduler kernel shared by both schedulers of the paper's
    Section 7 tree of stacks: the native effect-handler scheduler
    ([Pcont_sched.Sched]) and the process-stack machine's
    ([Pcont_pstack.Concur]).

    The kernel owns the live process forest (one main tree plus one
    independent tree per future, Section 8), the run queue and its three
    scheduling policies, waitset parking with FIFO wake, the timer heap
    with the quiescence clock jump, deadlock diagnosis, and slice
    emission.  A backend supplies its leaf (what a runnable fiber is),
    what a wait node resumes with, and its value type, and keeps only
    what differs: how a leaf is stepped and what its requests mean. *)

type ('l, 'w, 'v) node = {
  nid : int;
  mutable parent : ('l, 'w, 'v) parent;
  mutable body : ('l, 'w, 'v) body;
  mutable span : int;  (** its innermost open span, -1 for none *)
  mutable woke : int;
      (** under an obs handle, the clock at its last wake until its next
          slice, -1 for none *)
}

and ('l, 'w, 'v) parent =
  | Ptop  (** the main tree's root *)
  | Pfuture of ('l, 'w, 'v) future  (** the root of a future's tree *)
  | Pchild of ('l, 'w, 'v) node * int  (** slot [i] of a wait node *)

and ('l, 'w, 'v) body =
  | Nleaf of 'l  (** runnable *)
  | Nwait of ('l, 'w, 'v) nwait  (** waiting for its children *)
  | Nparked of ('l, 'w, 'v) entry  (** blocked: not runnable, not stepped *)
  | Ndone

and ('l, 'w, 'v) nwait = {
  wk : 'w;
  children : ('l, 'w, 'v) node array;
  results : 'v option array;
  mutable pending : int;
}

and ('l, 'w, 'v) future = {
  mutable fvalue : 'v option;
  fws : ('l, 'w, 'v) waitset;  (** its touchers, woken on delivery *)
}

(** The fibers parked on one blocking resource, in park order around a
    ring from [ws_first].  A wake, capture, cancel or spurious wake takes
    an entry off. *)
and ('l, 'w, 'v) waitset = {
  ws_name : string;
  mutable ws_first : ('l, 'w, 'v) entry option;
  mutable ws_waited : bool;
      (** a fiber parked here since the last {!Make.wake_ws}, even if it
          has left since *)
}

(** One parked fiber.  A live entry is on the run's registry of parked
    fibers ([we_prev]/[we_next]; a withdrawn entry links to itself) and,
    unless it sleeps, on its waitset's ring ([we_wprev]/[we_wnext]). *)
and ('l, 'w, 'v) entry = {
  we_ws : ('l, 'w, 'v) waitset;
  we_node : ('l, 'w, 'v) node;
  we_leaf : 'l;  (** what the node becomes when woken or captured *)
  we_round : int;  (** the round it parked in *)
  mutable we_prev : ('l, 'w, 'v) entry;
  mutable we_next : ('l, 'w, 'v) entry;
  mutable we_wprev : ('l, 'w, 'v) entry;
  mutable we_wnext : ('l, 'w, 'v) entry;
}

type policy =
  | Tree  (** every runnable leaf once per round, in tree order *)
  | Seeded of int64  (** a seeded shuffle of each round's order *)
  | Pick of (int -> int)
      (** one leaf per round, chosen by index among the live count *)
  | Pick_pids of (int array -> int)  (** as [Pick], from the live pids *)

val waitset : string -> ('l, 'w, 'v) waitset

val future : unit -> ('l, 'w, 'v) future
(** A pending future whose waitset is named ["future"]. *)

val parked_count : ('l, 'w, 'v) waitset -> int
(** Entries on the waitset. *)

type 'a heap

module type BACKEND = sig
  type leaf

  type wait

  type value

  val prefix : string
  (** Metric prefix: the kernel feeds [<prefix>.slice.fuel],
      [.runq.depth], [.park.rounds] and [.wake.run]. *)
end

module Make (B : BACKEND) : sig
  type nonrec node = (B.leaf, B.wait, B.value) node

  type nonrec waitset = (B.leaf, B.wait, B.value) waitset

  type nonrec entry = (B.leaf, B.wait, B.value) entry

  type nonrec future = (B.leaf, B.wait, B.value) future

  type nonrec parent = (B.leaf, B.wait, B.value) parent

  type nonrec body = (B.leaf, B.wait, B.value) body

  (** One run's state, in one record so that nested runs and the
      backends' user-level hooks reach it through a single pointer.
      Backends read it and change it only through the functions below. *)
  type t = private {
    obs : Pcont_obs.Obs.t option;
    policy : policy;
    rng : Pcont_util.Xorshift.t option;
    resume_wait : B.wait -> B.value array -> B.leaf;
    on_wake : unit -> unit;
    root : node;
    mutable queue : node list;
    mutable born : node list;
        (** leaves the step in progress made runnable, in tree order *)
    mutable new_trees : node list;
    mutable final : B.value option;  (** the main tree's value *)
    mutable halted : bool;  (** no further leaf is stepped *)
    mutable next_id : int;
    mutable rounds : int;
    mutable prunes : int;  (** captures so far; see {!pruned} *)
    mutable clock : int;  (** virtual time *)
    mutable cur_pid : int;  (** the stepping leaf *)
    mutable cur_span : int;  (** its innermost open span, -1 for none *)
    mutable live_futures : int;  (** futures planted and not delivered *)
    parked : entry;
    timer_ws : waitset;
    timers : entry heap;
    s_fuel : Pcont_obs.Obs.Metrics.Sketch.t;
    s_runq : Pcont_obs.Obs.Metrics.Sketch.t;
    s_park : Pcont_obs.Obs.Metrics.Sketch.t;
    s_wake_run : Pcont_obs.Obs.Metrics.Sketch.t;
  }

  val create :
    ?obs:Pcont_obs.Obs.t ->
    policy:policy ->
    resume_wait:(B.wait -> B.value array -> B.leaf) ->
    on_wake:(unit -> unit) ->
    B.leaf ->
    t
  (** A run whose root (pid 0) is the given leaf.  [resume_wait w vs] is
      the leaf a wait node becomes when its children have delivered [vs];
      [on_wake] is called per woken fiber. *)

  val set_born : t -> node list -> unit

  val halt : t -> unit
  (** Step no further leaf: the backend failed, ran out of fuel, or
      stops once the main tree has delivered. *)

  val pruned : t -> unit
  (** Record a capture: from now on attachment is checked by walking the
      parent chain. *)

  val set_span : t -> int -> unit

  (** {1 The forest} *)

  val node : t -> parent -> body -> node
  (** A fresh node (the next pid), inheriting the stepping leaf's span. *)

  val wait_on : node -> B.wait -> B.value option array -> (parent -> int -> node) -> unit
  (** [wait_on n w results child] makes [n] wait with [w] over one child
      per result slot, [child (Pchild (n, i)) i]; empty slots are
      pending. *)

  val fork : t -> node -> B.wait -> B.leaf list -> string -> unit
  (** [n] waits over fresh leaves, announced as spawns of the given kind
      and made runnable. *)

  val plant_future : t -> node -> future -> B.leaf -> unit
  (** Plant the leaf as the root of a new tree at the back of the
      forest, delivering into the future. *)

  val grafted : t -> node -> unit
  (** [n] was just made to wait over a rebuilt subtree: make its leaves
      runnable and announce its nodes in one [Spawn_batch] event. *)

  val deliver : t -> node -> B.value -> unit
  (** A leaf returned: finish the run, resolve a future (waking its
      touchers), or fill the parent's slot and resume it when complete. *)

  (** {1 Parking} *)

  val park : t -> node -> waitset -> B.leaf -> unit
  (** Park the node on the waitset; woken, it becomes the leaf. *)

  val sleep : t -> node -> int -> B.leaf -> unit
  (** Park the node on the timer heap until the clock reaches
      [clock + max d 0]. *)

  val unpark : entry -> unit
  (** Withdraw a live entry, as when a capture or cancel prunes it. *)

  val wake_ws : t -> waitset -> unit
  (** Wake the waitset's live entries, in park order. *)

  val wake_named : t -> string -> unit
  (** Spuriously wake every live entry on a waitset of this name, in park
      order. *)

  (** {1 Running} *)

  val begin_slice : t -> node -> unit
  (** [n]'s span becomes [cur_span]; under a handle, its wake stamp is
      observed and cleared. *)

  val end_slice : t -> node -> int -> unit
  (** [end_slice k n used]: [cur_span] becomes [n]'s span, and the clock
      advances by [used] (at least 1). *)

  val drive :
    t ->
    step:(node -> B.leaf -> unit) ->
    verdict:(unit -> 'r option) ->
    quiescent:(unit -> 'r) ->
    'r
  (** Run rounds until [verdict] returns a result, expiring timers
      between rounds.  When nothing is runnable, the clock jumps to the
      next live timer; with none left, [quiescent] decides (after a
      [Deadlock] event unless the main tree has delivered). *)

  val diagnosis : t -> (int * string) option
  (** The live parked fibers: their count and, per resource in name
      order, ["N on RES (paths 0>1>4, ...)"] with each fiber's
      root-to-fiber path in park order. *)
end

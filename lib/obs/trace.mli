(** Re-ingestion of exported JSONL traces.

    [Obs.Sink.jsonl] writes one stamped event per line; this module reads
    that format back into typed {!Obs.Event.t} values, splits a trace
    into runs (a [psi] session traces one run per top-level form, with
    global [seq]/[ts] but per-run pids), and reconstructs each run's
    process tree — a fresh {!Obs.Fold} plus the slice index the causal
    report's critical path walks.

    Parsing is tolerant: any well-formed line is accepted even when the
    event stream it describes is inconsistent (that is {!Analysis.Check}'s
    job), but unknown event tags, missing fields and malformed JSON are
    reported with their line number. *)

type stamped = { seq : int; ts : int; ev : Obs.Event.t }
(** One trace line: the event plus its stamp. *)

val event_of_json : Obs.Json.t -> (stamped, string) result
(** Invert {!Obs.Event.to_json}.  Numeric fields must be integral;
    extra fields are ignored. *)

val to_json : stamped -> Obs.Json.t
(** [to_json s] is [Obs.Event.to_json ~seq:s.seq ~ts:s.ts s.ev]. *)

val parse_string : string -> (stamped array, string) result
(** Parse a JSONL trace body.  Blank lines are skipped; the first
    malformed line fails the whole parse with a [line N: ...] message. *)

val load : string -> (stamped array, string) result
(** [parse_string] over a file's contents ([Error] on IO failure). *)

(** {1 Runs}

    A run starts at a root spawn ([Spawn { parent = -1; _ }]) and
    extends to the next root spawn or the end of the trace. *)

val runs : stamped array -> stamped array array
(** Split a trace into runs.  Events before the first root spawn (never
    produced by the sinks) are grouped into a leading run of their own. *)

(** {1 Process-tree reconstruction} *)

type node = Obs.Fold.proc

type slice = {
  sl_pid : int;
  sl_begin : int;  (** index of the [Slice_begin] event in [r_events] *)
  sl_end : int;  (** index of the matching [Slice_end] *)
  sl_begin_ts : int;
  sl_end_ts : int;
}

type run = {
  r_events : stamped array;
  r_fold : Obs.Fold.t;  (** a fresh {!Obs.Fold} over [r_events] *)
  r_nodes : node array;  (** the rows of the pids spawned in the run, by pid *)
  r_closed : (Obs.Fold.span * int) list;
      (** the spans the run closed, with their end ts, in close order *)
  r_slices : slice array;  (** in begin order *)
  r_actor : int array;
      (** for each event index, the index in [r_slices] of the slice
          open at that event, or [-1] when none is (root spawn,
          deadlock, events between runs) *)
}

val node_of : run -> int -> node option

val reconstruct : stamped array -> run
(** Fold one run (one element of {!runs}) and index its slices for the
    critical path.  Tolerant of inconsistent streams: unmatched slice
    ends, unknown pids and double wakes are skipped rather than raised
    — run {!Analysis.Check} to surface them. *)

val span : run -> int
(** Last ts − first ts. *)

val blocked_total : run -> (string * int) list
(** Total parked virtual time per resource, sorted by resource name; a
    park still open at the end of the run counts up to its last ts. *)

val schedule : run -> int array
(** The run's schedule: the pid of each slice in begin order.  Under a
    one-decision-per-slice policy ([Driven]/[Driven_pids]) this is
    exactly the sequence of scheduler decisions, so feeding it back
    through [Driven_pids] replays the run (see [Pcont_explore]). *)

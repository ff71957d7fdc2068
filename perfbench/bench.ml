(* The repository benchmark: four named workloads, each run from one
   single-domain process.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]

   --trace 0 repeats the workload's fixed input (generated from the
   seed) for about S seconds and prints the end-to-end metrics.
   --trace 1 alternates untraced and traced passes over the same input
   for about S seconds and prints the per-layer metrics; the spans the
   benchmark recorded around its calls into each layer during the last
   traced pass go to FILE.  The last line of
   standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Every layer is measured from outside: the benchmark times calls into
   public functions, reads public counters and [Gc.quick_stat] deltas,
   and attaches its own sinks through [Obs.attach] where a workload
   already carries an obs handle.  README.md names the workloads, the
   metrics and the layer each metric belongs to. *)

module Sched = Pcont_sched.Sched
module Channel = Pcont_sched.Channel
module Obs = Pcont_obs.Obs
module E = Obs.Event
module Sketch = Obs.Metrics.Sketch
module Trace = Pcont_obs.Trace
module Analysis = Pcont_obs.Analysis
module Load = Pcont_load.Load
module Resil = Pcont_resil.Resil
module Interp = Pcont_syntax.Interp
module Pstack = Pcont_pstack
module C = Pcont_util.Counters
module Xorshift = Pcont_util.Xorshift

(* ------------------------------------------------------------------ *)
(* Clock, statistics, metrics.                                         *)
(* ------------------------------------------------------------------ *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since t0 = float_of_int (now_ns () - t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* Stamps taken at fixed points of a pass's work: the same points, in the
   same order, in every pass over one seed's input.  [one_pass] turns
   consecutive stamps into the pass's parts. *)
let marks = ref []
let mark () = marks := now_ns () :: !marks

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A per-layer ratio whose base can be 0 on a workload that never calls
   the layer; such metrics read 0 there (README.md). *)
let per a b = if b = 0. then 0. else a /. b

let fi = float_of_int

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("ops_per_s", "1/s"); ("peak_heap_mb", "MB") ]

(* Every traced run prints every name here, in this order; BENCHMARK.json
   lists the same names. *)
let per_layer =
  [
    ("sched.slices_per_req", "count");
    ("sched.slices_per_roundtrip", "count");
    ("sched.kernel_ns_per_slice", "ns");
    ("sched.fiber_ns_per_slice", "ns");
    ("sched.parks_per_req", "count");
    ("sched.wakes_per_req", "count");
    ("sched.alloc_words_per_roundtrip", "words");
    ("sched.promoted_words_per_roundtrip", "words");
    ("sched.retained_words_per_roundtrip", "words");
    ("core.effect_ns", "ns");
    ("sched.yield_ns", "ns");
    ("sched.yield_x", "ratio");
    ("sched.park_wake_ns", "ns");
    ("sched.park_wake_x", "ratio");
    ("channel.rendezvous_ns", "ns");
    ("channel.rendezvous_x", "ratio");
    ("sched.sleep_ns", "ns");
    ("sched.sleep_x", "ratio");
    ("obs.span_ns", "ns");
    ("obs.span_x", "ratio");
    ("resil.timeout_scope_ns", "ns");
    ("resil.timeout_scope_x", "ratio");
    ("core.control_resume_ns", "ns");
    ("core.control_resume_x", "ratio");
    ("load.req_ns", "ns");
    ("load.req_x", "ratio");
    ("lat_p50_ticks", "ticks");
    ("lat_p999_ticks", "ticks");
    ("lat_samples", "count");
    ("fail_ratio", "ratio");
    ("load.arrivals_s", "s");
    ("load.pool_s", "s");
    ("load.ring_s", "s");
    ("load.pipeline_s", "s");
    ("load.stream_s", "s");
    ("load.queue_p50_ticks", "ticks");
    ("load.queue_p999_ticks", "ticks");
    ("load.service_p50_ticks", "ticks");
    ("load.service_p999_ticks", "ticks");
    ("load.wake_p50_ticks", "ticks");
    ("load.wake_p999_ticks", "ticks");
    ("load.join_p50_ticks", "ticks");
    ("load.join_p999_ticks", "ticks");
    ("load.late_ticks_p999", "ticks");
    ("load.peak_fibers", "count");
    ("resil.cancels_per_req", "count");
    ("resil.timeouts", "count");
    ("obs.events_per_req", "count");
    ("obs.overhead_pct", "%");
    ("obs.jsonl_emit_s", "s");
    ("obs.bytes_per_event", "bytes");
    ("analysis.parse_s", "s");
    ("analysis.check_s", "s");
    ("analysis.report_s", "s");
    ("analysis.slo_s", "s");
    ("syntax.compile_s", "s");
    ("pstack.forktree_s", "s");
    ("pstack.gen_s", "s");
    ("pstack.search_s", "s");
    ("concur.fork", "count");
    ("capture.segments", "count");
    ("reinstate.segments", "count");
    ("machine.pool.hit", "count");
    ("machine.pool.miss", "count");
    ("machine.capture.moved", "count");
    ("pstack.ns_per_fork", "ns");
    ("pstack.ns_per_capture", "ns");
    ("pstack.alloc_words_per_capture", "words");
    ("bench.trace_overhead_pct", "%");
    ("self.bench_s", "s");
    ("self.load_s", "s");
    ("self.sched_s", "s");
    ("self.syntax_s", "s");
    ("self.pstack_s", "s");
    ("self.obs_s", "s");
    ("self.analysis_s", "s");
  ]

let values : (string, float) Hashtbl.t = Hashtbl.create 128

let set name v =
  if not (List.mem_assoc name per_layer || List.mem_assoc name end_to_end) then
    invalid_arg ("undeclared metric " ^ name);
  Hashtbl.replace values name v

(* ------------------------------------------------------------------ *)
(* Correctness: attempted / failed operations and named gates.         *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let gate_failures = ref []

let gate ok what =
  if not ok then begin
    incr failed;
    gate_failures := what :: !gate_failures
  end

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans (traced run only).                        *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_layer : string;
  sp_parent : int;
  sp_start : int;
  mutable sp_stop : int;
}

let layers = [ "bench"; "load"; "sched"; "syntax"; "pstack"; "obs"; "analysis" ]
let tracing = ref false
let spans = ref []
let open_spans = ref []
let next_span = ref 0

let span layer name f =
  if not !tracing then f ()
  else begin
    let sp =
      {
        sp_id = !next_span;
        sp_name = name;
        sp_layer = layer;
        sp_parent = (match !open_spans with p :: _ -> p | [] -> -1);
        sp_start = now_ns ();
        sp_stop = 0;
      }
    in
    incr next_span;
    open_spans := sp.sp_id :: !open_spans;
    Fun.protect f ~finally:(fun () ->
        sp.sp_stop <- now_ns ();
        open_spans := List.tl !open_spans;
        spans := sp :: !spans)
  end

(* Self time: a span's duration minus the part its child spans cover
   (children never overlap: the benchmark makes one call at a time). *)
let self_ns () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.sp_stop - s.sp_start in
      Hashtbl.replace child s.sp_parent
        (d + Option.value ~default:0 (Hashtbl.find_opt child s.sp_parent)))
    !spans;
  List.map
    (fun s ->
      (s, s.sp_stop - s.sp_start - Option.value ~default:0 (Hashtbl.find_opt child s.sp_id)))
    (List.sort (fun a b -> compare a.sp_id b.sp_id) !spans)

let write_spans file run_id =
  let oc = open_out file in
  let self = self_ns () in
  let t0 = match self with (s, _) :: _ -> s.sp_start | [] -> 0 in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"run\":%s,\"id\":%d,\"parent\":%d,\"name\":%s,\"layer\":%s,\"start_ns\":%d,\"end_ns\":%d,\"self_ns\":%d}\n"
        (Obs.Json.quote run_id) s.sp_id s.sp_parent (Obs.Json.quote s.sp_name)
        (Obs.Json.quote s.sp_layer) (s.sp_start - t0) (s.sp_stop - t0) self)
    self;
  close_out oc

(* ------------------------------------------------------------------ *)
(* The counting and wall-stamping sink, attached through Obs.attach    *)
(* where a workload already carries an obs handle.                     *)
(* ------------------------------------------------------------------ *)

type probe = {
  mutable events : int;
  mutable slices : int;
  mutable parks : int;
  mutable wakes : int;
  mutable cancels : int;
  mutable timeouts : int;
  mutable kernel_ns : int;  (* Slice_end to the next Slice_begin *)
  mutable fiber_ns : int;  (* Slice_begin to Slice_end *)
  mutable last_begin : int;
  mutable last_end : int;
  mutable requests : int;
  late : Sketch.t;  (* scheduled arrival to request-span begin, ticks *)
}

let new_probe () =
  {
    events = 0;
    slices = 0;
    parks = 0;
    wakes = 0;
    cancels = 0;
    timeouts = 0;
    kernel_ns = 0;
    fiber_ns = 0;
    last_begin = 0;
    last_end = 0;
    requests = 0;
    late = Sketch.create ();
  }

(* One sink per Load.run.  Load plants its clients with one pcall from
   the root fiber, so the i-th ["branch"] spawn under pid 0 is the
   client of arrival i; its request span opens once it is admitted. *)
let probe_sink p ~arrivals ~scenario =
  p.last_end <- 0;
  p.requests <- p.requests + Array.length arrivals;
  let client = Hashtbl.create 4096 and next = ref 0 in
  {
    Obs.sink_event =
      (fun ~seq:_ ~ts ev ->
        p.events <- p.events + 1;
        match ev with
        | E.Slice_begin _ ->
            let t = now_ns () in
            if p.last_end > 0 then p.kernel_ns <- p.kernel_ns + (t - p.last_end);
            p.last_begin <- t;
            p.slices <- p.slices + 1
        | E.Slice_end _ ->
            let t = now_ns () in
            p.fiber_ns <- p.fiber_ns + (t - p.last_begin);
            p.last_end <- t
        | E.Park _ -> p.parks <- p.parks + 1
        | E.Wake _ -> p.wakes <- p.wakes + 1
        | E.Cancel _ -> p.cancels <- p.cancels + 1
        | E.Timeout _ -> p.timeouts <- p.timeouts + 1
        | E.Spawn { pid; parent = 0; kind = "branch" } when !next < Array.length arrivals ->
            Hashtbl.replace client pid !next;
            incr next
        | E.Span_begin { pid; name; _ } when name = scenario -> (
            match Hashtbl.find_opt client pid with
            | Some i ->
                Sketch.observe p.late (ts - arrivals.(i));
                Hashtbl.remove client pid
            | None -> ())
        | _ -> ());
    Obs.sink_close = ignore;
  }

let set_probe p =
  let r = fi p.requests in
  set "sched.slices_per_req" (per (fi p.slices) r);
  set "sched.parks_per_req" (per (fi p.parks) r);
  set "sched.wakes_per_req" (per (fi p.wakes) r);
  set "sched.kernel_ns_per_slice" (per (fi p.kernel_ns) (fi p.slices));
  set "sched.fiber_ns_per_slice" (per (fi p.fiber_ns) (fi p.slices));
  set "obs.events_per_req" (per (fi p.events) r);
  set "resil.cancels_per_req" (per (fi p.cancels) r);
  set "resil.timeouts" (fi p.timeouts);
  set "load.late_ticks_p999" (Sketch.quantile p.late 0.999)

(* Marks every 2^16 events of a run that carries an obs handle anyway. *)
let stamp_sink () =
  let n = ref 0 in
  {
    Obs.sink_event =
      (fun ~seq:_ ~ts:_ _ ->
        incr n;
        if !n land 0xFFFF = 0 then mark ());
    Obs.sink_close = ignore;
  }

(* ------------------------------------------------------------------ *)
(* Load helpers shared by serve and trace.                             *)
(* ------------------------------------------------------------------ *)

let sketch_fp s =
  Printf.sprintf "%d/%d/%d/%g/%g/%g" (Sketch.count s) (Sketch.sum s) (Sketch.max s)
    (Sketch.quantile s 0.5) (Sketch.quantile s 0.99) (Sketch.quantile s 0.999)

let stats_fp (st : Load.stats) =
  Printf.sprintf "%s req=%d ok=%d to=%d ca=%d cr=%d peak=%d dur=%d res=%d lat=%s q=%s sv=%s wk=%s jn=%s"
    st.st_scenario st.st_requests st.st_completed st.st_timedout st.st_cancelled
    st.st_crashed st.st_peak_live st.st_duration st.st_attr_residual
    (sketch_fp st.st_latency) (sketch_fp st.st_queue) (sketch_fp st.st_service)
    (sketch_fp st.st_wake) (sketch_fp st.st_join)

(* Gates every Load run passes: the latency decomposition is exact and
   the four fates partition the requests.  Returns the requests that
   did not complete. *)
let load_gates (st : Load.stats) =
  let lost = st.st_timedout + st.st_cancelled + st.st_crashed in
  attempted := !attempted + st.st_requests;
  failed := !failed + lost;
  gate (st.st_attr_residual = 0)
    (Printf.sprintf "%s: attribution residual %d" st.st_scenario st.st_attr_residual);
  gate
    (st.st_completed + lost = st.st_requests)
    (Printf.sprintf "%s: fates do not partition %d requests" st.st_scenario
       st.st_requests);
  lost

(* ------------------------------------------------------------------ *)
(* One pass of a workload.                                             *)
(* ------------------------------------------------------------------ *)

type pass = {
  setup_s : float;  (* filled in by [one_pass], which times [prepare] *)
  run_s : float;
  parts : float list;  (* seconds between consecutive marks; filled in by [one_pass] *)
  ops : int;  (* the workload's unit of work *)
  fp : string;  (* every virtual-clock output: equal on equal seeds *)
}

(* ------------------------------------------------------------------ *)
(* serve: all four Load scenarios, open loop on the virtual clock.     *)
(* ------------------------------------------------------------------ *)

module Serve = struct
  (* The full profile's request count and burst shape at one offered
     rate below saturation for every scenario (mean inter-arrival 32
     ticks; at 16 the stream backlog grows). *)
  let profile = { Load.full with Load.mean_iat = 32.0 }

  let seed_of seed k = Int64.(add (mul (of_int seed) 1_000_003L) (of_int k))

  let last_stats = ref []
  let last_times = ref []
  let last_probe = ref None

  let prepare ~traced seed =
    let arrivals =
      span "bench" "serve.setup" (fun () ->
          List.mapi
            (fun k _ ->
              span "load" "Load.arrivals" (fun () ->
                  Load.arrivals profile ~seed:(seed_of seed k)))
            Load.scenarios)
    in
    fun () ->
      let probe = if traced then Some (new_probe ()) else None in
      let runs, run_s =
        timed (fun () ->
            List.mapi
              (fun k (sc, arr) ->
                let name = Load.scenario_name sc in
                let obs = Obs.create () in
                Obs.attach obs (stamp_sink ());
                Option.iter
                  (fun p -> Obs.attach obs (probe_sink p ~arrivals:arr ~scenario:name))
                  probe;
                let r =
                  timed (fun () ->
                      span "load" ("Load.run:" ^ name) (fun () ->
                          Load.run ~obs profile ~seed:(seed_of seed k) sc))
                in
                mark ();
                r)
              (List.combine Load.scenarios arrivals))
      in
      let stats = List.map fst runs in
      let completed =
        List.fold_left (fun n (st : Load.stats) -> n + st.st_requests - load_gates st) 0 stats
      in
      last_stats := stats;
      last_times := List.map snd runs;
      last_probe := probe;
      {
        setup_s = 0.;
        run_s;
        parts = [];
        ops = completed;
        fp = String.concat "\n" (List.map stats_fp stats);
      }

  let pooled f =
    let s = Sketch.create () in
    List.iter (fun st -> Sketch.merge s (f st)) !last_stats;
    s

  let layers ~untraced ~traced:(t : pass) ~effect_ns =
    let q s p = Sketch.quantile s p in
    let lat = pooled (fun st -> st.Load.st_latency) in
    set "lat_p50_ticks" (q lat 0.5);
    set "lat_p999_ticks" (q lat 0.999);
    set "lat_samples" (fi (Sketch.count lat));
    List.iter
      (fun (name, f) ->
        let s = pooled f in
        set (Printf.sprintf "load.%s_p50_ticks" name) (q s 0.5);
        set (Printf.sprintf "load.%s_p999_ticks" name) (q s 0.999))
      [
        ("queue", fun st -> st.Load.st_queue);
        ("service", fun st -> st.Load.st_service);
        ("wake", fun st -> st.Load.st_wake);
        ("join", fun st -> st.Load.st_join);
      ];
    set "load.peak_fibers"
      (fi (List.fold_left (fun m st -> max m st.Load.st_peak_live) 0 !last_stats));
    set "load.arrivals_s" t.setup_s;
    List.iter2
      (fun st s -> set (Printf.sprintf "load.%s_s" st.Load.st_scenario) s)
      !last_stats !last_times;
    Option.iter set_probe !last_probe;
    (* rung (h) of the cost ladder: one request's wall cost, untraced *)
    let reqs = List.fold_left (fun n st -> n + st.Load.st_requests) 0 !last_stats in
    let req_ns = untraced.run_s *. 1e9 /. fi reqs in
    set "load.req_ns" req_ns;
    set "load.req_x" (req_ns /. effect_ns ())
end

(* ------------------------------------------------------------------ *)
(* switch: fiber pairs ping-pong over 1-slot channels.                 *)
(* ------------------------------------------------------------------ *)

module Switch = struct
  let pairs = 500
  let roundtrips = 1_000_000

  let value_rng seed p = Xorshift.create Int64.(add (mul (of_int seed) 7919L) (of_int p))

  (* [value p i] is the i-th value pair [p] sends; [at_end] runs in the
     root fiber once every pair has finished.  Returns the wrong values
     received, the pairs whose sums disagree with [expected], and the
     slices the run took. *)
  let run ?obs ?(at_end = ignore) ~pairs ~per_pair ~value ~expected () =
    let bad = ref 0 and slices = ref 0 in
    let sent = Array.make pairs 0 and echoed = Array.make pairs 0 in
    Sched.run ?obs (fun () ->
        ignore
          (Sched.pcall
             (List.init pairs (fun p () ->
                  let ping = Channel.create ~capacity:1 ()
                  and pong = Channel.create ~capacity:1 () in
                  ignore
                    (Sched.pcall2
                       (fun () ->
                         for i = 0 to per_pair - 1 do
                           (* all pairs advance in step: pair 0 marks
                              every 1/50 of the run *)
                           if p = 0 && i mod (max 1 (per_pair / 50)) = 0 then mark ();
                           let v = value p i in
                           Channel.send ping v;
                           Sched.yield ();
                           if Channel.recv pong <> v then incr bad;
                           sent.(p) <- sent.(p) + v;
                           Sched.yield ()
                         done;
                         Channel.close ping)
                       (fun () ->
                         let rec loop () =
                           match Channel.recv_opt ping with
                           | None -> ()
                           | Some v ->
                               echoed.(p) <- echoed.(p) + v;
                               Sched.yield ();
                               Channel.send pong v;
                               Sched.yield ();
                               loop ()
                         in
                         loop ())))));
        slices := Sched.now ();
        at_end ());
    let mismatched = ref 0 in
    for p = 0 to pairs - 1 do
      if sent.(p) <> expected.(p) || echoed.(p) <> expected.(p) then incr mismatched
    done;
    (!bad, !mismatched, !slices)

  let last_gc = ref (0., 0.)
  let last_slices = ref 0
  let last_inputs = ref [||]

  let prepare ~traced:_ seed =
    let per_pair = roundtrips / pairs in
    let inputs, expected =
      span "bench" "switch.setup" (fun () ->
          let inputs =
            Array.init pairs (fun p ->
                let g = value_rng seed p in
                Array.init per_pair (fun _ -> Xorshift.int g 1_000_000))
          in
          (inputs, Array.map (Array.fold_left ( + ) 0) inputs))
    in
    fun () ->
      let minor0 = Gc.minor_words () and prom0 = (Gc.quick_stat ()).Gc.promoted_words in
      let (bad, mismatched, slices), run_s =
        timed (fun () ->
            span "sched" "Sched.run" (fun () ->
                run ~pairs ~per_pair ~value:(fun p i -> inputs.(p).(i)) ~expected ()))
      in
      let rt = fi roundtrips in
      last_gc :=
        ( (Gc.minor_words () -. minor0) /. rt,
          ((Gc.quick_stat ()).Gc.promoted_words -. prom0) /. rt );
      last_slices := slices;
      last_inputs := inputs;
      attempted := !attempted + roundtrips;
      failed := !failed + bad;
      gate (mismatched = 0) (Printf.sprintf "switch: %d pair sums disagree" mismatched);
      {
        setup_s = 0.;
        run_s;
        parts = [];
        ops = roundtrips;
        fp = Printf.sprintf "slices=%d bad=%d mismatched=%d" slices bad mismatched;
      }

  (* Live words at the end of a one-pair run of [n] round trips, taken in
     the root fiber after a full major collection.  Values are computed,
     not stored, so the input adds nothing. *)
  let live_words_after n =
    let value _ i = i * 7 in
    let expected = [| 7 * (n * (n - 1) / 2) |] in
    let live = ref 0 in
    Gc.compact ();
    let bad, mismatched, _ =
      run ~pairs:1 ~per_pair:n ~value ~expected
        ~at_end:(fun () ->
          Gc.full_major ();
          live := (Gc.stat ()).Gc.live_words)
        ()
    in
    gate (bad = 0 && mismatched = 0) "switch: retained-memory probe values";
    !live

  let layers () =
    let alloc, promoted = !last_gc in
    set "sched.alloc_words_per_roundtrip" alloc;
    set "sched.promoted_words_per_roundtrip" promoted;
    set "sched.slices_per_roundtrip" (fi !last_slices /. fi roundtrips);
    (* the price of observing switch-heavy work: the same inputs with no
       handle and under a metrics-only handle, alternated, best of each *)
    let inputs = !last_inputs in
    let expected = Array.map (Array.fold_left ( + ) 0) inputs in
    let per_pair = roundtrips / pairs in
    let once obs =
      Gc.compact ();
      let (bad, mismatched, _), s =
        timed (fun () ->
            run ?obs ~pairs ~per_pair ~value:(fun p i -> inputs.(p).(i)) ~expected ())
      in
      gate (bad = 0 && mismatched = 0) "switch: values in the observing-price runs";
      s
    in
    let best = Array.make 2 infinity in
    for _ = 1 to 2 do
      best.(0) <- Float.min best.(0) (once None);
      best.(1) <- Float.min best.(1) (once (Some (Obs.create ())))
    done;
    set "obs.overhead_pct" ((best.(1) /. best.(0) -. 1.) *. 100.);
    last_inputs := [||];
    let short = 100_000 and long = 1_000_000 in
    let w_short = live_words_after short in
    let w_long = live_words_after long in
    set "sched.retained_words_per_roundtrip" (fi (w_long - w_short) /. fi (long - short))
end

(* ------------------------------------------------------------------ *)
(* The cost ladder (ROADMAP item 3): ns per operation per layer and    *)
(* the ratio to a raw effect perform/continue.                         *)
(* ------------------------------------------------------------------ *)

module Ladder = struct
  type _ Effect.t += Ping : unit Effect.t

  (* the best of five timings, in ns per operation *)
  let ns_per ops f =
    List.fold_left Float.min infinity
      (List.init 5 (fun _ ->
           let (), s = timed f in
           s *. 1e9 /. fi ops))

  let effect_ns () =
    let chunk = 10_000 and chunks = 300 in
    ns_per (chunk * chunks) (fun () ->
        for _ = 1 to chunks do
          Effect.Deep.match_with
            (fun () ->
              for _ = 1 to chunk do
                Effect.perform Ping
              done)
            ()
            {
              Effect.Deep.retc = Fun.id;
              exnc = raise;
              effc =
                (fun (type a) (e : a Effect.t) ->
                  match e with
                  | Ping ->
                      Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                          Effect.Deep.continue k ())
                  | _ -> None);
            }
        done)

  let fibers n body = ignore (Sched.pcall (List.init n (fun i () -> body i)))

  let yield_ns () =
    let n = 1_000 and m = 1_000 in
    ns_per (n * m) (fun () ->
        Sched.run (fun () ->
            fibers n (fun _ ->
                for _ = 1 to m do
                  Sched.yield ()
                done)))

  (* two fibers hand a turn back and forth through two waitsets: each
     hand-off is one park and one wake *)
  let park_wake_ns () =
    let m = 200_000 in
    ns_per (2 * m) (fun () ->
        Sched.run (fun () ->
            let turn = ref 0 in
            let ws = [| Sched.Waitset.create "a"; Sched.Waitset.create "b" |] in
            fibers 2 (fun me ->
                for _ = 1 to m do
                  while !turn <> me do
                    Sched.block ws.(me)
                  done;
                  turn := 1 - me;
                  Sched.wake ws.(1 - me)
                done)))

  let rendezvous_ns () =
    let m = 300_000 in
    ns_per m (fun () ->
        Sched.run (fun () ->
            let ch = Channel.create ~capacity:1 () in
            ignore
              (Sched.pcall2
                 (fun () ->
                   for i = 1 to m do
                     Channel.send ch i
                   done)
                 (fun () ->
                   for _ = 1 to m do
                     ignore (Channel.recv ch)
                   done))))

  let sleep_ns () =
    let n = 100 and m = 2_000 in
    ns_per (n * m) (fun () ->
        Sched.run (fun () ->
            fibers n (fun i ->
                for _ = 1 to m do
                  Sched.sleep (1 + (i mod 7))
                done)))

  let span_ns () =
    let m = 500_000 in
    ns_per m (fun () ->
        Sched.run ~obs:(Obs.create ()) (fun () ->
            for _ = 1 to m do
              Sched.Span.with_ "rung" ignore
            done))

  let timeout_scope_ns () =
    let m = 100_000 in
    ns_per m (fun () ->
        Sched.run (fun () ->
            for _ = 1 to m do
              match Resil.with_timeout 1_000_000 ignore with
              | Ok () -> ()
              | Error f -> failwith (Resil.failure_to_string f)
            done))

  let control_resume_ns () =
    let m = 200_000 in
    ns_per m (fun () ->
        Sched.run (fun () ->
            for _ = 1 to m do
              let r =
                Sched.spawn (fun c -> 1 + Sched.control c (fun k -> Sched.resume k 1))
              in
              if r <> 2 then failwith "control/resume value"
            done))

  (* rung (a), the base of every ratio *)
  let base () =
    let v = effect_ns () in
    set "core.effect_ns" v;
    v

  let run () =
    let base = base () in
    List.iter
      (fun (name, f) ->
        let v = f () in
        set (name ^ "_ns") v;
        set (name ^ "_x") (v /. base))
      [
        ("sched.yield", yield_ns);
        ("sched.park_wake", park_wake_ns);
        ("channel.rendezvous", rendezvous_ns);
        ("sched.sleep", sleep_ns);
        ("obs.span", span_ns);
        ("resil.timeout_scope", timeout_scope_ns);
        ("core.control_resume", control_resume_ns);
      ]
end

(* ------------------------------------------------------------------ *)
(* scheme: three programs through Interp, checked against OCaml.       *)
(* ------------------------------------------------------------------ *)

module Scheme = struct
  (* (1) a pcall fork tree; (2) a generator pipeline: one spawned
     generator per 100 elements, each element passed out through a
     controller capture whose body resumes it at once (the one-shot
     move and the segment pool); (3) the paper's Section 5
     parallel-search/search-all, which prunes the whole search at each
     match and grafts it back. *)
  let defs =
    {|
(define (tsum lo hi grain)
  (if (<= (- hi lo) grain)
      (let loop ([i lo] [acc 0])
        (if (> i hi) acc (loop (+ i 1) (+ acc i))))
      (let ([mid (quotient (+ lo hi) 2)])
        (pcall + (tsum lo mid grain) (tsum (+ mid 1) hi grain)))))

(define (chunk-sum ls n)
  (spawn (lambda (c)
    (let loop ([ls ls] [i 0] [acc 0])
      (if (= i n)
          acc
          (let ([y (+ (* 2 (car ls)) 1)])
            (loop (cdr ls) (+ i 1) (+ acc (c (lambda (k) (k y)))))))))))
(define (gen-sum ls)
  (let loop ([ls ls] [acc 0])
    (if (null? ls)
        acc
        (loop (list-tail ls 100) (+ acc (chunk-sum ls 100))))))

(define (node t) (car t))
(define (left t) (cadr t))
(define (right t) (car (cddr t)))
(define (empty? t) (null? t))
(define parallel-search
  (lambda (tree predicate?)
    (spawn
      (lambda (c)
        (define search
          (lambda (tree)
            (unless (empty? tree)
              (pcall
                (lambda (x y z) #f)
                (when (predicate? (node tree))
                  (c (lambda (k)
                       (cons (node tree)
                             (lambda () (k #f))))))
                (search (left tree))
                (search (right tree))))))
        (search tree)
        #f))))
(define search-all
  (lambda (tree predicate?)
    (letrec ([collect (lambda (result)
                        (if result
                            (cons (car result) (collect ((cdr result))))
                            '()))])
      (collect (parallel-search tree predicate?)))))
|}

  let tsum_grain = 4
  let gen_len = 100_000
  let tree_depth = 12

  type input = {
    data_src : string;  (* seeded data as Scheme definitions *)
    progs : (string * Interp.mode * string * string) list;
        (* name, mode, expression, expected printed value *)
  }

  let conc = Interp.Concurrent Pstack.Concur.Round_robin

  let input seed =
    let g = Xorshift.create (Int64.of_int (seed + 0x5eed)) in
    let hi = 65_536 + Xorshift.int g 8_192 in
    let data = List.init gen_len (fun _ -> Xorshift.int g 1_000) in
    let rec tree d =
      if d = 0 then ("()", [])
      else
        let v = Xorshift.int g 10_000 in
        let ls, lv = tree (d - 1) in
        let rs, rv = tree (d - 1) in
        (Printf.sprintf "(%d %s %s)" v ls rs, (v :: lv) @ rv)
    in
    let tree_src, tree_vals = tree tree_depth in
    let hits = List.filter (fun v -> v mod 3 = 0) tree_vals in
    {
      data_src =
        Printf.sprintf "(define gen-data '(%s))\n(define search-tree '%s)\n"
          (String.concat " " (List.map string_of_int data))
          tree_src;
      progs =
        [
          ( "forktree",
            conc,
            Printf.sprintf "(tsum 1 %d %d)" hi tsum_grain,
            string_of_int (hi * (hi + 1) / 2) );
          ( "gen",
            Interp.Sequential,
            "(gen-sum gen-data)",
            string_of_int (List.fold_left (fun a x -> a + (2 * x) + 1) 0 data) );
          ( "search",
            conc,
            "(let ([r (search-all search-tree (lambda (x) (= 0 (modulo x 3))))]) (list (length r) (apply + r)))",
            Printf.sprintf "(%d %d)" (List.length hits) (List.fold_left ( + ) 0 hits) );
        ];
    }

  let counter_names =
    [
      "concur.fork";
      "controller";
      "capture.segments";
      "reinstate.segments";
      "machine.pool.hit";
      "machine.pool.miss";
      "machine.capture.moved";
    ]

  (* per program: wall seconds, minor words, counter deltas *)
  let last = ref []
  let last_compile = ref 0.

  let prepare ~traced:_ seed =
    let t, inp =
      span "bench" "scheme.setup" (fun () ->
          let inp = input seed in
          let t = span "syntax" "Interp.create" (fun () -> Interp.create ()) in
          let results, compile_s =
            timed (fun () ->
                span "syntax" "Interp.eval_string:defs" (fun () ->
                    Interp.eval_string t (defs ^ inp.data_src)))
          in
          List.iter
            (function
              | Interp.Error m -> failwith ("scheme definitions: " ^ m)
              | Interp.Value _ | Interp.Defined _ -> ())
            results;
          last_compile := compile_s;
          (t, inp))
    in
    fun () ->
      let counters = (Interp.config t).Pstack.Machine.counters in
      let runs, run_s =
        timed (fun () ->
            List.map
              (fun (name, mode, src, expected) ->
                let c0 = List.map (C.get counters) counter_names in
                let w0 = Gc.minor_words () in
                let v, s =
                  timed (fun () ->
                      span "pstack" ("Interp.eval_value:" ^ name) (fun () ->
                          Interp.eval_value ~mode ~fuel:max_int t src))
                in
                mark ();
                let words = Gc.minor_words () -. w0 in
                let got = Pstack.Value.to_string v in
                attempted := !attempted + 1;
                gate (got = expected)
                  (Printf.sprintf "scheme %s: got %s, expected %s" name got expected);
                let deltas =
                  List.map2 (fun n c -> (n, C.get counters n - c)) counter_names c0
                in
                (name, (s, words, deltas, got)))
              inp.progs)
      in
      last := runs;
      let total n =
        List.fold_left (fun a (_, (_, _, d, _)) -> a + List.assoc n d) 0 runs
      in
      {
        setup_s = 0.;
        run_s;
        parts = [];
        ops = total "concur.fork" + total "controller";
        fp =
          String.concat "\n"
            (List.map
               (fun (name, (_, _, d, got)) ->
                 Printf.sprintf "%s=%s %s" name got
                   (String.concat " "
                      (List.map (fun (n, v) -> Printf.sprintf "%s:%d" n v) d)))
               runs);
      }

  let layers () =
    let runs = !last in
    let secs name = let s, _, _, _ = List.assoc name runs in s in
    let count prog n = let _, _, d, _ = List.assoc prog runs in fi (List.assoc n d) in
    set "syntax.compile_s" !last_compile;
    List.iter
      (fun (name, _) -> set (Printf.sprintf "pstack.%s_s" name) (secs name))
      runs;
    List.iter
      (fun n ->
        if n <> "controller" then
          set n (List.fold_left (fun a (p, _) -> a +. count p n) 0. runs))
      counter_names;
    set "pstack.ns_per_fork" (per (secs "forktree" *. 1e9) (count "forktree" "concur.fork"));
    let caps = count "gen" "controller" in
    set "pstack.ns_per_capture" (per (secs "gen" *. 1e9) caps);
    let _, gen_words, _, _ = List.assoc "gen" runs in
    set "pstack.alloc_words_per_capture" (per gen_words caps)
end

(* ------------------------------------------------------------------ *)
(* trace: one Load scenario exported as JSONL, then read back and      *)
(* analysed.                                                           *)
(* ------------------------------------------------------------------ *)

module Tracewl = struct
  let profile = { Load.quick with Load.mean_iat = 32.0 }
  let scenario = Load.Pool

  let last_probe = ref None
  let last_times = ref []
  let last_emit = ref 0
  let last_bytes = ref 0
  let last_events = ref 0

  let prepare ~traced seed =
    let seed = Int64.of_int seed in
    let arrivals =
      span "bench" "trace.setup" (fun () ->
          span "load" "Load.arrivals" (fun () -> Load.arrivals profile ~seed))
    in
    fun () ->
      let probe = if traced then Some (new_probe ()) else None in
      let emit_ns = ref 0 in
      let stage layer name f =
        let r, s = timed (fun () -> span layer name f) in
        mark ();
        last_times := (name, s) :: !last_times;
        r
      in
      last_times := [];
      let (st, text, evs, violations, slo), run_s =
        timed (fun () ->
            let o = Obs.create () in
            let buf = Buffer.create (1 lsl 24) in
            let lines = ref 0 in
            let jsonl =
              Obs.Sink.jsonl (fun line ->
                  Buffer.add_string buf line;
                  incr lines;
                  if !lines land 0x3FFF = 0 then mark ())
            in
            Obs.attach o
              (if traced then
                 {
                   jsonl with
                   Obs.sink_event =
                     (fun ~seq ~ts ev ->
                       let t0 = now_ns () in
                       jsonl.Obs.sink_event ~seq ~ts ev;
                       emit_ns := !emit_ns + (now_ns () - t0));
                 }
               else jsonl);
            Option.iter
              (fun p ->
                Obs.attach o
                  (probe_sink p ~arrivals ~scenario:(Load.scenario_name scenario)))
              probe;
            let st =
              stage "load" "Load.run:pool+jsonl" (fun () ->
                  Load.run ~obs:o profile ~seed scenario)
            in
            stage "obs" "Obs.close" (fun () -> Obs.close o);
            let text = Buffer.contents buf in
            let evs =
              match stage "analysis" "Trace.parse_string" (fun () -> Trace.parse_string text) with
              | Ok evs -> evs
              | Error m -> failwith ("trace: exported JSONL does not parse: " ^ m)
            in
            let violations =
              stage "analysis" "Analysis.Check.run" (fun () -> Analysis.Check.run evs)
            in
            let reports =
              stage "analysis" "Analysis.Report.of_trace" (fun () ->
                  Analysis.Report.of_trace evs)
            in
            gate (List.length reports = 1) "trace: one run in the report";
            let slo = stage "analysis" "Analysis.Slo.of_trace" (fun () -> Analysis.Slo.of_trace evs) in
            (st, text, evs, violations, slo))
      in
      ignore (load_gates st);
      let nv = List.length violations in
      attempted := !attempted + Array.length evs;
      failed := !failed + nv;
      gate (nv = 0)
        (Printf.sprintf "trace: %d Check violations, first: %s" nv
           (match violations with
           | v :: _ -> v.Analysis.Check.v_rule ^ ": " ^ v.Analysis.Check.v_msg
           | [] -> ""));
      let agree what a b =
        attempted := !attempted + 1;
        gate (a = b) (Printf.sprintf "trace: Slo %s %d <> Load.stats %d" what a b)
      in
      (match slo.Analysis.Slo.slo_scens with
      | [ sc ] ->
          agree "requests" sc.sc_requests st.st_requests;
          agree "completed" sc.sc_completed st.st_completed;
          agree "timedout" sc.sc_timedout st.st_timedout;
          agree "cancelled" sc.sc_cancelled st.st_cancelled;
          agree "crashed" sc.sc_crashed st.st_crashed
      | scens -> gate false (Printf.sprintf "trace: %d scenarios in Slo" (List.length scens)));
      last_probe := probe;
      last_emit := !emit_ns;
      last_bytes := String.length text;
      last_events := Array.length evs;
      {
        setup_s = 0.;
        run_s;
        parts = [];
        ops = Array.length evs;
        fp =
          Printf.sprintf "%s events=%d bytes=%d violations=%d\n%s"
            (Digest.to_hex (Digest.string text))
            (Array.length evs) (String.length text) nv (stats_fp st);
      }

  let layers () =
    let secs name = List.assoc name !last_times in
    set "analysis.parse_s" (secs "Trace.parse_string");
    set "analysis.check_s" (secs "Analysis.Check.run");
    set "analysis.report_s" (secs "Analysis.Report.of_trace");
    set "analysis.slo_s" (secs "Analysis.Slo.of_trace");
    set "obs.jsonl_emit_s" (fi !last_emit /. 1e9);
    set "obs.bytes_per_event" (per (fi !last_bytes) (fi !last_events));
    Option.iter set_probe !last_probe
end

(* ------------------------------------------------------------------ *)
(* Passes, estimators and the command line.                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  prepare : traced:bool -> int -> unit -> pass;
      (* set-up from the seed; the closure it returns is the measured run *)
  layers : untraced:pass -> traced:pass -> unit;
}

let workloads =
  [
    ( "serve",
      {
        prepare = Serve.prepare;
        layers = Serve.layers ~effect_ns:Ladder.base;
      } );
    ( "switch",
      {
        prepare = Switch.prepare;
        layers =
          (fun ~untraced:_ ~traced:_ ->
            Switch.layers ();
            Ladder.run ());
      } );
    ("scheme", { prepare = Scheme.prepare; layers = (fun ~untraced:_ ~traced:_ -> Scheme.layers ()) });
    ("trace", { prepare = Tracewl.prepare; layers = (fun ~untraced:_ ~traced:_ -> Tracewl.layers ()) });
  ]

(* Top of the major heap after the first pass: later passes run the same
   input, but their garbage can raise the top further. *)
let peak_heap_mb = ref 0.

(* One pass: set up, then run from a compacted heap, so that passes do
   not inherit each other's heap shape.  Untraced, the set-up is then
   repeated until it has run at least five times and for at least 50 ms,
   and the pass reports the median set-up time. *)
let one_pass w ~traced seed =
  let times = ref [] in
  let prepare () =
    let go, s = timed (fun () -> w.prepare ~traced seed) in
    times := s :: !times;
    go
  in
  let go = prepare () in
  Gc.compact ();
  marks := [];
  mark ();
  let p = go () in
  mark ();
  if !peak_heap_mb = 0. then
    peak_heap_mb := fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
  if not traced then
    while List.length !times < 5 || List.fold_left ( +. ) 0. !times < 0.05 do
      let (_ : unit -> pass) = prepare () in
      ()
    done;
  let rec parts = function
    | a :: (b :: _ as rest) -> (fi (b - a) /. 1e9) :: parts rest
    | _ -> []
  in
  { p with setup_s = median !times; parts = parts (List.rev !marks) }

(* The run time of a workload: the sum over its parts of each part's
   fastest pass.  Every pass runs the same input, and its marks cut it at
   the same points, so part i is the same work in every pass.  On a small
   shared VM, host contention slows whole seconds of a run by up to 1.7x;
   parts of tens of milliseconds, each taken at its fastest, are an
   estimate such phases do not move. *)
let best_parts ps =
  let parts = List.map (fun p -> Array.of_list p.parts) ps in
  let n = Array.length (List.hd parts) in
  if List.exists (fun a -> Array.length a <> n) parts then begin
    gate false "passes over one input were cut into different numbers of parts";
    median (List.map (fun p -> p.run_s) ps)
  end
  else
    let best = Array.make n infinity in
    List.iter (Array.iteri (fun i s -> best.(i) <- Float.min best.(i) s)) parts;
    Array.fold_left ( +. ) 0. best

(* Repeat passes for about [seconds]: at least two, and no pass that
   would end past the budget at the mean pass length so far. *)
let repeat ~seconds f =
  let t0 = now_ns () in
  let rec go acc n =
    let acc = f () :: acc in
    let elapsed = since t0 in
    if n >= 2 && elapsed +. (elapsed /. fi n) > seconds then List.rev acc
    else go acc (n + 1)
  in
  go [] 1

let deterministic name (ps : pass list) =
  match ps with
  | [] -> ()
  | p0 :: rest ->
      List.iteri
        (fun i p ->
          gate (p.fp = p0.fp)
            (Printf.sprintf "%s: pass %d virtual-clock outputs differ from pass 0:\n%s\n--- vs ---\n%s"
               name (i + 1) p.fp p0.fp))
        rest

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result names =
  let correct = !gate_failures = [] && !failed = 0 in
  let metric (name, unit) =
    Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Obs.Json.quote name)
      (json_num (Option.value ~default:0. (Hashtbl.find_opt values name)))
      (Obs.Json.quote unit)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 !attempted) !failed
    (String.concat "," (List.map metric names));
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0
  and spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve | switch | scheme | trace");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--spans", Arg.Set_string spans_file, "FILE where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let correct =
    if !trace = 0 then begin
      let ps = repeat ~seconds:!seconds (fun () -> one_pass w ~traced:false !seed) in
      deterministic !workload ps;
      let med f = median (List.map f ps) in
      set "setup_s" (med (fun p -> p.setup_s));
      let run_s = best_parts ps in
      set "run_s" run_s;
      set "ops_per_s" (fi (List.hd ps).ops /. run_s);
      set "peak_heap_mb" !peak_heap_mb;
      Printf.printf "%s seed %d: %d passes of %d parts, pass seconds %s\n" !workload !seed
        (List.length ps) (List.length (List.hd ps).parts)
        (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.run_s) ps));
      print_result end_to_end
    end
    else begin
      (* untraced and traced passes alternate, so that both see the same
         mix of host phases; spans and per-layer figures come from the
         last traced pass *)
      let pair () =
        let u = one_pass w ~traced:false !seed in
        spans := [];
        tracing := true;
        let t =
          span "bench" (!workload ^ ".pass") (fun () -> one_pass w ~traced:true !seed)
        in
        tracing := false;
        (u, t)
      in
      let pairs = repeat ~seconds:!seconds pair in
      let us = List.map fst pairs and ts = List.map snd pairs in
      deterministic !workload (us @ ts);
      let u_best = best_parts us and t_best = best_parts ts in
      w.layers
        ~untraced:{ (List.hd us) with run_s = u_best }
        ~traced:(List.nth ts (List.length ts - 1));
      set "bench.trace_overhead_pct" ((t_best /. u_best -. 1.) *. 100.);
      set "fail_ratio" (per (fi !failed) (fi !attempted));
      let self = Hashtbl.create 8 in
      List.iter
        (fun (s, ns) ->
          Hashtbl.replace self s.sp_layer
            (ns + Option.value ~default:0 (Hashtbl.find_opt self s.sp_layer)))
        (self_ns ());
      List.iter
        (fun l ->
          set ("self." ^ l ^ "_s")
            (fi (Option.value ~default:0 (Hashtbl.find_opt self l)) /. 1e9))
        layers;
      if !spans_file <> "" then
        write_spans !spans_file (Printf.sprintf "%s/%d/%d" !workload !seed (now_ns ()));
      print_result per_layer
    end
  in
  if not correct then begin
    List.iter (fun m -> prerr_endline ("gate failed: " ^ m)) (List.rev !gate_failures);
    exit 1
  end

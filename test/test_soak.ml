(* Soak tests: a long run's memory must follow its live fibers, not its
   history.  Each workload runs at 10^4 and at 10^5 operations and reads
   the live heap words after a full major collection from inside the
   run, while the scheduler's state is still reachable; ten times the
   operations may cost at most 10% more live words.  Given [--long] as
   its first argument (the [soak] alias), the suite runs 10^5 against
   10^6 operations under the same rule. *)

module S = Pcont_sched.Sched
module Ch = Pcont_sched.Channel
module Pstack = Pcont_pstack
module Concur = Pcont_pstack.Concur
module T = Pcont_pstack.Types

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

let long = Array.length Sys.argv > 1 && Sys.argv.(1) = "--long"

let check_flat name workload =
  let n = if long then 100_000 else 10_000 in
  let small = workload n and large = workload (10 * n) in
  let bound = float_of_int small *. 1.1 in
  if float_of_int large > bound then
    Alcotest.failf "%s: %d live words at %d operations, above 1.1 x %d at %d" name large
      (10 * n) small n

(* ---------------- native scheduler ---------------- *)

let ping_pong n =
  S.run (fun () ->
      let ping = Ch.create ~capacity:1 () and pong = Ch.create ~capacity:1 () in
      let _ =
        S.pcall2
          (fun () ->
            for i = 1 to n do
              Ch.send ping i;
              ignore (Ch.recv pong)
            done)
          (fun () ->
            for _ = 1 to n do
              Ch.send pong (Ch.recv ping)
            done)
      in
      live_words ())

(* A fresh 1-slot channel per operation: a channel nobody can reach
   any more must not stay registered with the run. *)
let fresh_channels n =
  S.run (fun () ->
      for i = 1 to n do
        let ch = Ch.create ~capacity:1 () in
        Ch.send ch i;
        ignore (Ch.recv ch)
      done;
      live_words ())

let sleep_loop n =
  S.run (fun () ->
      for i = 1 to n do
        S.sleep (i mod 3)
      done;
      live_words ())

(* Timeout scopes, half of which time out: every scope's timer branch
   and every timed-out body is cancelled while parked on the timer. *)
let timeout_scopes n =
  S.run (fun () ->
      for i = 1 to n do
        ignore
          (Pcont_resil.Resil.with_timeout 5 (fun () ->
               S.sleep (if i mod 2 = 0 then 1 else 10);
               i))
      done;
      live_words ())

(* Fibers forked inside a span under a metrics-only handle: a finished
   fiber must not keep its span context. *)
let span_forks n =
  S.run ~obs:(Pcont_obs.Obs.create ()) (fun () ->
      for _ = 1 to n do
        S.Span.with_ "req" (fun () ->
            ignore
              (S.pcall2
                 (fun () ->
                   S.yield ();
                   1)
                 (fun () -> 2)))
      done;
      live_words ())

(* Waiters that time out on one waitset nobody wakes: a cancelled
   waiter must leave the waitset, which outlives the measurement. *)
let timed_out_waiters n =
  let ws = S.Waitset.create "never" in
  let words =
    S.run (fun () ->
        for _ = 1 to n do
          ignore (Pcont_resil.Resil.with_timeout 1 (fun () -> S.block ws))
        done;
        live_words ())
  in
  ignore (Sys.opaque_identity ws);
  words

(* Under a metrics-only handle, a parked fiber is woken by its sibling,
   which then aborts their shared scope before the woken fiber runs: the
   wake stamp must go with the cancelled fiber. *)
let woken_then_cancelled n =
  S.run ~obs:(Pcont_obs.Obs.create ()) (fun () ->
      for _ = 1 to n do
        let ws = S.Waitset.create "gate" in
        S.spawn (fun c ->
            ignore
              (S.pcall2
                 (fun () -> S.block ws)
                 (fun () ->
                   S.wake ws;
                   S.abort c ~reason:"done" ignore)))
      done;
      live_words ())

(* ---------------- process-stack scheduler ---------------- *)

(* Runs [src] under Concur with a [live-words] primitive defined. *)
let pstack_run src n =
  let genv = Pstack.Prims.base_env () in
  Pstack.Env.define_global genv "live-words"
    (T.Prim
       { pname = "live-words"; pmin = 0; pmax = Some 0;
         pkind = T.Pure (fun _ -> Ok (T.Int (live_words ()))) });
  let ir =
    match Pcont_syntax.Expand.parse_program (Printf.sprintf src n) with
    | Ok [ Pcont_syntax.Expand.Expr ir ] -> ir
    | _ -> Alcotest.fail "parse"
  in
  match Concur.run ~fuel:max_int genv ir with
  | Concur.Value (T.Int w) -> w
  | o -> Alcotest.failf "unexpected outcome %s" (Concur.outcome_to_string o)

let future_touch_loop =
  pstack_run
    "(letrec ([loop (lambda (i acc)
                       (if (= i 0) acc (loop (- i 1) (+ acc (touch (future i))))))])
       (begin (loop %d 0) (live-words)))"

let pstack_sleep_loop =
  pstack_run
    "(letrec ([loop (lambda (i) (if (= i 0) 0 (begin (sleep 1) (loop (- i 1)))))])
       (begin (loop %d) (live-words)))"

(* ---------------- ptrace top ---------------- *)

(* A root spawns fibers one after another; each parks on a timer, is
   woken, runs and exits.  ptrace top's state must follow the one live
   fiber, not every fiber the run has seen. *)
let top_sequential n =
  let module E = Pcont_obs.Obs.Event in
  let module Snapshot = Pcont_obs.Analysis.Snapshot in
  let snap = Snapshot.create () in
  let seq = ref 0 and ts = ref 0 in
  let feed ev =
    Snapshot.feed snap { Pcont_obs.Trace.seq = !seq; ts = !ts; ev };
    incr seq
  in
  feed (E.Spawn { pid = 0; parent = -1; kind = "root" });
  for pid = 1 to n do
    feed (E.Slice_begin { pid = 0 });
    feed (E.Spawn { pid; parent = 0; kind = "branch" });
    incr ts;
    feed (E.Slice_end { pid = 0; fuel = 1 });
    feed (E.Slice_begin { pid });
    feed (E.Park { pid; resource = "timer" });
    incr ts;
    feed (E.Slice_end { pid; fuel = 1 });
    feed (E.Wake { pid; resource = "timer" });
    feed (E.Slice_begin { pid });
    feed (E.Exit { pid });
    incr ts;
    feed (E.Slice_end { pid; fuel = 1 })
  done;
  let words = live_words () in
  ignore (Sys.opaque_identity snap);
  words

let () =
  (* [--long] is this suite's own flag: Alcotest must not see it *)
  Alcotest.run ~argv:(if long then [| Sys.argv.(0) |] else Sys.argv) "soak"
    [
      ( "native",
        [
          Alcotest.test_case "channel ping-pong" `Quick (fun () ->
              check_flat "ping-pong" ping_pong);
          Alcotest.test_case "fresh channels" `Quick (fun () ->
              check_flat "fresh channels" fresh_channels);
          Alcotest.test_case "sleep loop" `Quick (fun () ->
              check_flat "sleep" sleep_loop);
          Alcotest.test_case "timeout scopes" `Quick (fun () ->
              check_flat "timeout scopes" timeout_scopes);
          Alcotest.test_case "span forks" `Quick (fun () ->
              check_flat "span forks" span_forks);
          Alcotest.test_case "timed-out waiters on one waitset" `Quick (fun () ->
              check_flat "timed-out waiters" timed_out_waiters);
          Alcotest.test_case "woken then cancelled under a handle" `Quick (fun () ->
              check_flat "woken then cancelled" woken_then_cancelled);
        ] );
      ( "pstack",
        [
          Alcotest.test_case "future/touch loop" `Quick (fun () ->
              check_flat "future/touch" future_touch_loop);
          Alcotest.test_case "sleep loop" `Quick (fun () ->
              check_flat "sleep" pstack_sleep_loop);
        ] );
      ( "analysis",
        [
          Alcotest.test_case "top over sequential fibers" `Quick (fun () ->
              check_flat "top" top_sequential);
        ] );
    ]

module Json = Obs.Json
module Event = Obs.Event

type stamped = { seq : int; ts : int; ev : Event.t }

let ( let* ) = Result.bind

let int_field j k =
  match Json.member k j with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | Some _ -> Error (Printf.sprintf "field %S is not an integer" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let str_field j k =
  match Json.member k j with
  | Some (Json.Str s) -> Ok s
  | Some _ -> Error (Printf.sprintf "field %S is not a string" k)
  | None -> Error (Printf.sprintf "missing field %S" k)

let event_of_json j =
  let* seq = int_field j "seq" in
  let* ts = int_field j "ts" in
  let* name = str_field j "ev" in
  let* ev =
    match name with
    | "spawn" ->
        let* pid = int_field j "pid" in
        let* parent = int_field j "parent" in
        let* kind = str_field j "kind" in
        Ok (Event.Spawn { pid; parent; kind })
    | "spawn-batch" ->
        let* pid = int_field j "pid" in
        let* kind = str_field j "kind" in
        let* nodes =
          match Json.member "nodes" j with
          | Some (Json.Arr entries) ->
              let rec go acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | Json.Arr [ Json.Num p; Json.Num par ] :: rest
                  when Float.is_integer p && Float.is_integer par ->
                    go ((int_of_float p, int_of_float par) :: acc) rest
                | _ ->
                    Error "field \"nodes\" entries must be [pid,parent] int pairs"
              in
              go [] entries
          | Some _ -> Error "field \"nodes\" is not an array"
          | None -> Error "missing field \"nodes\""
        in
        Ok (Event.Spawn_batch { pid; kind; nodes })
    | "exit" ->
        let* pid = int_field j "pid" in
        Ok (Event.Exit { pid })
    | "slice-begin" ->
        let* pid = int_field j "pid" in
        Ok (Event.Slice_begin { pid })
    | "slice-end" ->
        let* pid = int_field j "pid" in
        let* fuel = int_field j "fuel" in
        Ok (Event.Slice_end { pid; fuel })
    | "park" ->
        let* pid = int_field j "pid" in
        let* resource = str_field j "resource" in
        Ok (Event.Park { pid; resource })
    | "wake" ->
        let* pid = int_field j "pid" in
        let* resource = str_field j "resource" in
        Ok (Event.Wake { pid; resource })
    | "capture" ->
        let* pid = int_field j "pid" in
        let* label = int_field j "label" in
        let* root_pid = int_field j "root_pid" in
        let* control_points = int_field j "control_points" in
        let* size = int_field j "size" in
        Ok (Event.Capture { pid; label; root_pid; control_points; size })
    | "reinstate" ->
        let* pid = int_field j "pid" in
        let* label = int_field j "label" in
        let* size = int_field j "size" in
        Ok (Event.Reinstate { pid; label; size })
    | "send" ->
        let* pid = int_field j "pid" in
        let* chan = int_field j "chan" in
        Ok (Event.Send { pid; chan })
    | "recv" ->
        let* pid = int_field j "pid" in
        let* chan = int_field j "chan" in
        Ok (Event.Recv { pid; chan })
    | "cancel" ->
        let* pid = int_field j "pid" in
        let* scope = int_field j "scope" in
        let* reason = str_field j "reason" in
        let* pids =
          match Json.member "pids" j with
          | Some (Json.Arr entries) ->
              let rec go acc = function
                | [] -> Ok (Array.of_list (List.rev acc))
                | Json.Num p :: rest when Float.is_integer p ->
                    go (int_of_float p :: acc) rest
                | _ -> Error "field \"pids\" entries must be integers"
              in
              go [] entries
          | Some _ -> Error "field \"pids\" is not an array"
          | None -> Error "missing field \"pids\""
        in
        Ok (Event.Cancel { pid; scope; reason; pids })
    | "timeout" ->
        let* pid = int_field j "pid" in
        let* deadline = int_field j "deadline" in
        Ok (Event.Timeout { pid; deadline })
    | "crash" ->
        let* pid = int_field j "pid" in
        let* fault = str_field j "fault" in
        Ok (Event.Crash { pid; fault })
    | "restart" ->
        let* pid = int_field j "pid" in
        let* child = int_field j "child" in
        let* attempt = int_field j "attempt" in
        let* backoff = int_field j "backoff" in
        let* limit = int_field j "limit" in
        Ok (Event.Restart { pid; child; attempt; backoff; limit })
    | "invalid-controller" ->
        let* pid = int_field j "pid" in
        let* label = int_field j "label" in
        Ok (Event.Invalid_controller { pid; label })
    | "deadlock" ->
        let* parked = int_field j "parked" in
        Ok (Event.Deadlock { parked })
    | "span-begin" ->
        let* pid = int_field j "pid" in
        let* span = int_field j "span" in
        let* parent = int_field j "parent" in
        let* name = str_field j "name" in
        Ok (Event.Span_begin { pid; span; parent; name })
    | "span-end" ->
        let* pid = int_field j "pid" in
        let* span = int_field j "span" in
        Ok (Event.Span_end { pid; span })
    | other -> Error (Printf.sprintf "unknown event tag %S" other)
  in
  Ok { seq; ts; ev }

let to_json s = Event.to_json ~seq:s.seq ~ts:s.ts s.ev

let parse_string body =
  let lines = String.split_on_char '\n' body in
  let acc = ref [] in
  let err = ref None in
  List.iteri
    (fun i line ->
      if !err = None && String.trim line <> "" then
        match Json.parse line with
        | Error m -> err := Some (Printf.sprintf "line %d: %s" (i + 1) m)
        | Ok j -> (
            match event_of_json j with
            | Error m -> err := Some (Printf.sprintf "line %d: %s" (i + 1) m)
            | Ok s -> acc := s :: !acc))
    lines;
  match !err with
  | Some m -> Error m
  | None -> Ok (Array.of_list (List.rev !acc))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | body -> parse_string body
  | exception Sys_error m -> Error m

(* ---------------- runs ---------------- *)

let is_root s = match s.ev with Event.Spawn { parent = -1; _ } -> true | _ -> false

let runs events =
  let cuts = ref [] in
  Array.iteri (fun i s -> if is_root s && i > 0 then cuts := i :: !cuts) events;
  let cuts = List.rev !cuts in
  let bounds =
    let rec go start = function
      | [] -> [ (start, Array.length events) ]
      | c :: rest -> (start, c) :: go c rest
    in
    go 0 cuts
  in
  bounds
  |> List.filter (fun (a, b) -> b > a)
  |> List.map (fun (a, b) -> Array.sub events a (b - a))
  |> Array.of_list

(* ---------------- reconstruction ---------------- *)

type node = Obs.Fold.proc

type slice = {
  sl_pid : int;
  sl_begin : int;
  sl_end : int;
  sl_begin_ts : int;
  sl_end_ts : int;
}

type run = {
  r_events : stamped array;
  r_fold : Obs.Fold.t;
  r_nodes : node array;
  r_closed : (Obs.Fold.span * int) list;
  r_slices : slice array;
  r_actor : int array;
}

let node_of run pid =
  match Hashtbl.find_opt run.r_fold.procs pid with
  | Some n when n.r_spawn_ts >= 0 -> Some n
  | _ -> None

let reconstruct events =
  let fold = Obs.Fold.create () in
  let n_events = Array.length events in
  let actor = Array.make n_events (-1) in
  let slices = ref [] in
  let n_slices = ref 0 in
  let open_slice = ref None in
  let closed = ref [] in
  let close_slice (opid, ob, obts, _) ~until ~until_ts =
    incr n_slices;
    slices :=
      { sl_pid = opid; sl_begin = ob; sl_end = until; sl_begin_ts = obts;
        sl_end_ts = until_ts }
      :: !slices
  in
  Array.iteri
    (fun i s ->
      (match !open_slice with
      | Some (_, _, _, idx) -> actor.(i) <- idx
      | None -> ());
      (match s.ev with
      | Event.Slice_begin { pid } ->
          (* Tolerate an unterminated previous slice by force-closing it
             with zero extent. *)
          (match !open_slice with
          | Some ((_, _, obts, _) as o) -> close_slice o ~until:i ~until_ts:obts
          | None -> ());
          actor.(i) <- !n_slices;
          open_slice := Some (pid, i, s.ts, !n_slices)
      | Event.Slice_end { pid; _ } -> (
          match !open_slice with
          | Some ((opid, _, _, _) as o) when opid = pid ->
              open_slice := None;
              close_slice o ~until:i ~until_ts:s.ts
          | _ -> ())
      | _ -> ());
      match Obs.Fold.feed fold ~ts:s.ts s.ev with
      | Some sp -> closed := (sp, s.ts) :: !closed
      | None -> ())
    events;
  (* A slice left open at the end of the stream (truncated trace) still
     owns its events; close it at the last timestamp. *)
  (match !open_slice with
  | Some o -> close_slice o ~until:(n_events - 1) ~until_ts:fold.last_ts
  | None -> ());
  let slices = Array.of_list (List.rev !slices) in
  (* Force-closed zero-extent slices were appended out of begin order at
     most one position away; restore begin order. *)
  Array.sort (fun a b -> compare a.sl_begin b.sl_begin) slices;
  {
    r_events = events;
    r_fold = fold;
    r_nodes =
      Obs.Fold.procs fold
      |> List.filter (fun (n : node) -> n.r_spawn_ts >= 0)
      |> Array.of_list;
    r_closed = List.rev !closed;
    r_slices = slices;
    r_actor = actor;
  }

let span run = run.r_fold.last_ts - run.r_fold.first_ts

let blocked_total run =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun n ->
      List.iter
        (fun (r, d) ->
          let cur = match Hashtbl.find_opt tbl r with Some c -> c | None -> 0 in
          Hashtbl.replace tbl r (cur + d))
        (Obs.Fold.blocked n ~until:run.r_fold.last_ts))
    run.r_nodes;
  Hashtbl.fold (fun r d acc -> (r, d) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let schedule run = Array.map (fun s -> s.sl_pid) run.r_slices

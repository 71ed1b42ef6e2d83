(* The run core shared by both chaos engines. A run has two phases.
   During the chaos phase each tick first fires due fault-reverts, then
   applies the schedule events due at that tick, then lets the engine take
   its tick. After the last chaos tick every outstanding fault is
   force-reverted and the quiescence tail begins: up to [tail] clean ticks
   during which the deployment must become healthy again.

   Everything here is deterministic given a deterministic engine — which
   is what makes the shrinker (Shrink) and `--replay` trustworthy. *)

open Conman

type verdict = { name : string; ok : bool; detail : string }

type 'stats report = {
  verdicts : verdict list;
  converged_tick : int option;
  goal_trace : string;
  orphan_spans : int;
  total_spans : int;
  phase_samples : (string * int list) list;
  metrics_json : string;
  stats : 'stats;
}

let failures r = List.filter (fun v -> not v.ok) r.verdicts
let failed_names r = List.map (fun v -> v.name) (failures r)
let holds r name = List.exists (fun v -> v.name = name && v.ok) r.verdicts

let pp_verdict ppf v =
  Fmt.pf ppf "%-20s %s  %s" v.name (if v.ok then "ok  " else "FAIL") v.detail

type world = {
  faults : Mgmt.Faults.t;
  apply : until:(int -> (unit -> unit) -> unit) -> tick:int -> Schedule.fault -> unit;
  step : int -> unit;
  quiesce : unit -> unit;
  healthy : unit -> bool;
}

let drive (sched : Schedule.t) w =
  let reverts = ref [] in (* (due_tick, undo) *)
  let fire_reverts tick =
    let due, later = List.partition (fun (at, _) -> at <= tick) !reverts in
    reverts := later;
    List.iter (fun (_, undo) -> undo ()) due
  in
  let apply tick (e : Schedule.event) =
    let until ticks undo = reverts := (tick + ticks, undo) :: !reverts in
    let faults = w.faults in
    match e.Schedule.fault with
    | Schedule.Mgmt_drop { p; ticks } ->
        Mgmt.Faults.set_drop faults p;
        until ticks (fun () -> Mgmt.Faults.set_drop faults 0.0)
    | Schedule.Mgmt_duplicate { p; ticks } ->
        Mgmt.Faults.set_duplicate faults p;
        until ticks (fun () -> Mgmt.Faults.set_duplicate faults 0.0)
    | Schedule.Mgmt_jitter { ms; ticks } ->
        Mgmt.Faults.set_jitter faults (Int64.mul (Int64.of_int ms) 1_000_000L);
        until ticks (fun () -> Mgmt.Faults.set_jitter faults 0L)
    | f -> w.apply ~until ~tick f
  in
  (* --- chaos phase ---- *)
  for tick = 0 to sched.Schedule.ticks - 1 do
    fire_reverts tick;
    List.iter (fun e -> if e.Schedule.at = tick then apply tick e) sched.Schedule.events;
    w.step tick
  done;
  (* --- force quiescence ---- *)
  fire_reverts max_int;
  Mgmt.Faults.clear w.faults;
  w.quiesce ();
  (* --- quiescence tail ---- *)
  let converged = ref None in
  let tail_tick = ref 0 in
  while !converged = None && !tail_tick < sched.Schedule.tail do
    incr tail_tick;
    w.step (sched.Schedule.ticks + !tail_tick - 1);
    if w.healthy () then converged := Some !tail_tick
  done;
  !converged

let partition ~until faults a b ticks =
  Mgmt.Faults.set_drop faults ~src:a ~dst:b 1.0;
  Mgmt.Faults.set_drop faults ~src:b ~dst:a 1.0;
  until ticks (fun () ->
      Mgmt.Faults.set_drop faults ~src:a ~dst:b 0.0;
      Mgmt.Faults.set_drop faults ~src:b ~dst:a 0.0)

(* Trace connectivity: every span minted on a goal's behalf — by any NM,
   any agent, the transport's retry events — must hang off that goal's
   single root; an orphan means a context was lost crossing a layer. *)
let report ~obs ~goals ~converged ~phase_keys verdicts stats =
  let cols = Observe.collectors obs in
  let sum f = List.fold_left (fun acc g -> acc + List.length (f cols g)) 0 goals in
  let orphan_spans = sum Obs.Trace.orphans and total_spans = sum Obs.Trace.goal_spans in
  let connected = goals <> [] && List.for_all (Obs.Trace.connected cols) goals in
  let v_trace =
    {
      name = "trace-connected";
      ok = connected && orphan_spans = 0;
      detail =
        (if connected then
           Printf.sprintf "%d goal(s), %d span(s), one root each, zero orphans"
             (List.length goals) total_spans
         else Printf.sprintf "%d orphan span(s)" orphan_spans);
    }
  in
  let reg = Observe.registry obs in
  {
    verdicts = verdicts @ [ v_trace ];
    converged_tick = converged;
    goal_trace = (match goals with g :: _ -> Obs.Trace.render cols g | [] -> "");
    orphan_spans;
    total_spans;
    phase_samples = List.map (fun k -> (k, Obs.Registry.samples reg k)) phase_keys;
    metrics_json = Obs.Registry.to_json reg;
    stats;
  }

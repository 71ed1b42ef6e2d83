(* Chaos engine tests: schedule generation determinism, the sexp repro
   codec, invariant checking on quiet and faulty schedules, the shrinker,
   and the satellite fixes (Faults.reset_counters, the monitor's bounded
   event ring). *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- schedule generation ------------------------------------------------ *)

let test_schedule_determinism () =
  let a = Chaos.Schedule.generate ~seed:7 ~ticks:10 () in
  let b = Chaos.Schedule.generate ~seed:7 ~ticks:10 () in
  check tstr "same seed, byte-identical schedule" (Chaos.Schedule.to_string a)
    (Chaos.Schedule.to_string b);
  let c = Chaos.Schedule.generate ~seed:8 ~ticks:10 () in
  check tbool "different seed, different schedule" true
    (Chaos.Schedule.to_string a <> Chaos.Schedule.to_string c)

let test_schedule_codec_roundtrip () =
  let sched =
    {
      Chaos.Schedule.seed = 3;
      ticks = 9;
      tail = 6;
      events =
        [
          { Chaos.Schedule.at = 0; fault = Chaos.Schedule.Link_cut { seg = "A--B1"; ticks = 2 } };
          { at = 1; fault = Chaos.Schedule.Link_loss { seg = "B1--C"; p = 0.25; ticks = 1 } };
          { at = 1; fault = Chaos.Schedule.Link_corrupt { seg = "B2--C"; p = 0.125; ticks = 3 } };
          {
            at = 2;
            fault =
              Chaos.Schedule.Link_flap { seg = "A--B2"; cycles = 2; down_ms = 200; up_ms = 100 };
          };
          { at = 3; fault = Chaos.Schedule.Mgmt_drop { p = 0.5; ticks = 2 } };
          { at = 3; fault = Chaos.Schedule.Mgmt_duplicate { p = 0.25; ticks = 1 } };
          { at = 4; fault = Chaos.Schedule.Mgmt_jitter { ms = 40; ticks = 2 } };
          { at = 5; fault = Chaos.Schedule.Mgmt_partition { dev = "id-B1"; ticks = 1 } };
          { at = 6; fault = Chaos.Schedule.Agent_crash { dev = "id-B2"; ticks = 2 } };
          { at = 7; fault = Chaos.Schedule.Nm_crash };
        ];
    }
  in
  let round = Chaos.Schedule.of_string (Chaos.Schedule.to_string sched) in
  check tbool "roundtrip preserves the schedule" true (round = sched);
  check tstr "and re-encodes identically" (Chaos.Schedule.to_string sched)
    (Chaos.Schedule.to_string round)

(* --- the engine --------------------------------------------------------- *)

let test_quiet_schedule_all_invariants_hold () =
  let sched = { Chaos.Schedule.seed = 1; ticks = 3; tail = 8; events = [] } in
  let r = Chaos.Engine.run sched in
  (match Chaos.Run.failures r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "quiet run violated %s: %s" f.Chaos.Run.name f.Chaos.Run.detail);
  check tbool "converged immediately" true (r.Chaos.Run.converged_tick <> None);
  check tint "no repairs were needed" 0 r.Chaos.Run.stats.Chaos.Engine.total_repairs

let test_run_determinism () =
  let sched = Chaos.Schedule.generate ~seed:11 ~ticks:8 () in
  let a = Chaos.Engine.run sched in
  let b = Chaos.Engine.run sched in
  check tstr "fault counters identical across fresh runs"
    a.Chaos.Run.stats.Chaos.Engine.mgmt_counters b.Chaos.Run.stats.Chaos.Engine.mgmt_counters;
  check tbool "monitor event traces identical" true
    (a.Chaos.Run.stats.Chaos.Engine.trace = b.Chaos.Run.stats.Chaos.Engine.trace);
  check tbool "verdicts identical" true (a.Chaos.Run.verdicts = b.Chaos.Run.verdicts)

(* Both engines append the run core's trace-connected verdict. *)
let test_quiet_schedule_trace_connected () =
  let r = Chaos.Engine.run { Chaos.Schedule.seed = 1; ticks = 3; tail = 8; events = [] } in
  check tbool "diamond report carries a holding trace-connected verdict" true
    (Chaos.Run.holds r "trace-connected");
  check tint "no orphan spans" 0 r.Chaos.Run.orphan_spans

(* Regression: under management jitter the monitor rerouted three times;
   the primary then crashed before its last Bind reached the standby. On
   its return the deposed primary's transport re-sent that reroute's
   creates and the new leader adopted them, so state it had no record of
   came back after its own re-achieve and survived teardown (9 leaked
   keys on the B2 branch). *)
let test_failover_after_jittered_reroutes_leaves_no_state () =
  let sched =
    Chaos.Schedule.of_string
      "(chaos (seed 38) (ticks 6) (tail 12) (events (1 (mgmt-jitter 40 3)) (4 (nm-failover 4))))"
  in
  let r = Chaos.Engine.run sched in
  check tbool "a failover happened" true (r.Chaos.Run.stats.Chaos.Engine.ha.Chaos.Engine.failovers > 0);
  match Chaos.Run.failures r with
  | [] -> ()
  | f :: _ -> Alcotest.failf "violated %s: %s" f.Chaos.Run.name f.Chaos.Run.detail

let test_composite_schedule_converges () =
  let sched = Chaos.Schedule.generate ~seed:5 ~ticks:8 () in
  let r = Chaos.Engine.run sched in
  match Chaos.Run.failures r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "seed 5 violated %s: %s" f.Chaos.Run.name f.Chaos.Run.detail

(* --- the federated engine ------------------------------------------------ *)

let test_fed_run_determinism () =
  let sched = Chaos.Fed_engine.generate ~seed:3 ~ticks:6 () in
  let a = Chaos.Fed_engine.run sched in
  let b = Chaos.Fed_engine.run sched in
  check tbool "equal reports" true (a = b);
  match Chaos.Run.failures a with
  | [] -> check tbool "trace-connected held" true (Chaos.Run.holds a "trace-connected")
  | f :: _ -> Alcotest.failf "seed 3 violated %s: %s" f.Chaos.Run.name f.Chaos.Run.detail

(* A replayed repro may mix in diamond-only events: the federated engine
   skips them, so the report equals the run without them. *)
let test_fed_skips_diamond_events () =
  let sched = Chaos.Fed_engine.generate ~seed:4 ~ticks:6 () in
  let cut = { Chaos.Schedule.at = 1; fault = Chaos.Schedule.Link_cut { seg = "A--B1"; ticks = 2 } } in
  let mixed = { sched with Chaos.Schedule.events = cut :: sched.Chaos.Schedule.events } in
  let replayed = Chaos.Schedule.of_string (Chaos.Schedule.to_string mixed) in
  check tbool "the replayed schedule holds the cut" true
    (List.mem cut replayed.Chaos.Schedule.events);
  check tbool "the cut was skipped" true (Chaos.Fed_engine.run replayed = Chaos.Fed_engine.run sched)

(* --- the shrinker ------------------------------------------------------- *)

(* With the oscillation bound weakened to zero, any schedule that forces a
   single successful reroute is a "violation"; the shrinker must reduce a
   noisy schedule to (essentially) the one cut that matters. *)
let test_shrinker_minimizes_planted_fault () =
  let noisy =
    {
      Chaos.Schedule.seed = 21;
      ticks = 6;
      tail = 8;
      events =
        [
          { Chaos.Schedule.at = 1; fault = Chaos.Schedule.Link_cut { seg = "A--B1"; ticks = 6 } };
          { at = 3; fault = Chaos.Schedule.Mgmt_jitter { ms = 20; ticks = 1 } };
          { at = 3; fault = Chaos.Schedule.Mgmt_duplicate { p = 0.2; ticks = 1 } };
          { at = 4; fault = Chaos.Schedule.Mgmt_drop { p = 0.1; ticks = 1 } };
          { at = 5; fault = Chaos.Schedule.Link_loss { seg = "B1--C"; p = 0.2; ticks = 1 } };
        ];
    }
  in
  let failing s = Chaos.Run.failures (Chaos.Engine.run ~oscillation_bound:0 s) <> [] in
  check tbool "the noisy schedule violates the weakened invariant" true (failing noisy);
  let { Chaos.Shrink.minimized; runs } = Chaos.Shrink.minimize ~failing noisy in
  check tbool "shrinking made progress" true
    (List.length minimized.Chaos.Schedule.events < List.length noisy.Chaos.Schedule.events);
  check tbool "minimized repro has at most 2 events" true
    (List.length minimized.Chaos.Schedule.events <= 2);
  check tbool "the oracle ran more than once" true (runs > 1);
  (* the minimized repro replays deterministically from its serialised form *)
  let replayed = Chaos.Schedule.of_string (Chaos.Schedule.to_string minimized) in
  check tbool "replay still reproduces the violation" true (failing replayed);
  let r1 = Chaos.Engine.run ~oscillation_bound:0 replayed in
  let r2 = Chaos.Engine.run ~oscillation_bound:0 replayed in
  check tbool "replay is deterministic" true
    (r1.Chaos.Run.verdicts = r2.Chaos.Run.verdicts
    && r1.Chaos.Run.stats.Chaos.Engine.trace = r2.Chaos.Run.stats.Chaos.Engine.trace)

(* --- satellite: Faults.reset_counters ----------------------------------- *)

let test_faults_reset_counters () =
  let v = Scenarios.build_vpn () in
  Mgmt.Faults.set_drop v.Scenarios.faults 0.5;
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ | Error _ -> ());
  let c k = List.assoc k (Mgmt.Faults.obs_counters v.Scenarios.faults) in
  check tbool "the lossy channel dropped something" true (c "dropped" > 0);
  Mgmt.Faults.clear v.Scenarios.faults;
  check tbool "clear preserves counters" true (c "dropped" > 0);
  Mgmt.Faults.reset_counters v.Scenarios.faults;
  check tint "reset_counters zeroes dropped" 0 (c "dropped");
  check tint "reset_counters zeroes duplicated" 0 (c "duplicated");
  check tint "reset_counters zeroes delayed" 0 (c "delayed");
  check tint "reset_counters zeroes crash drops" 0 (c "crash_drops");
  check tint "reset_counters zeroes partition drops" 0 (c "partition_drops")

(* --- satellite: bounded monitor event log -------------------------------- *)

let test_monitor_event_ring_bounded () =
  let d = Scenarios.build_diamond () in
  let nm = d.Scenarios.dnm in
  (match Nm.achieve nm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  let mon = Monitor.create nm in
  Monitor.set_event_limit mon 3;
  check tint "limit is applied" 3 (Monitor.event_limit mon);
  (* cut both cores: every tick logs failed repair attempts, then an
     escalation — plenty of events for a 3-slot ring *)
  let seg n = Netsim.Net.find_segment_exn d.Scenarios.dtb.Netsim.Testbeds.dia_net n in
  Netsim.Link.cut (seg "A--B1");
  Netsim.Link.cut (seg "A--B2");
  Monitor.run mon ~ticks:8;
  check tbool "ring stayed within its cap" true (List.length (Monitor.events mon) <= 3);
  check tbool "evicted events were counted" true (Monitor.dropped_events mon > 0)

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_schedule_determinism;
          Alcotest.test_case "sexp codec roundtrip" `Quick test_schedule_codec_roundtrip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "quiet schedule holds all invariants" `Quick
            test_quiet_schedule_all_invariants_hold;
          Alcotest.test_case "deterministic runs" `Quick test_run_determinism;
          Alcotest.test_case "composite schedule converges" `Quick
            test_composite_schedule_converges;
          Alcotest.test_case "quiet schedule: trace connected" `Quick
            test_quiet_schedule_trace_connected;
          Alcotest.test_case "failover after jittered reroutes leaks nothing" `Quick
            test_failover_after_jittered_reroutes_leaves_no_state;
        ] );
      ( "fed-engine",
        [
          Alcotest.test_case "deterministic runs" `Quick test_fed_run_determinism;
          Alcotest.test_case "skips diamond-only events" `Quick test_fed_skips_diamond_events;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "minimizes a planted fault" `Quick
            test_shrinker_minimizes_planted_fault;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "Faults.reset_counters" `Quick test_faults_reset_counters;
          Alcotest.test_case "bounded monitor event ring" `Quick
            test_monitor_event_ring_bounded;
        ] );
    ]

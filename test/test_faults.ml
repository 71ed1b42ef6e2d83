(* Scenario tests for the fault-injection layer and the NM's reliability
   machinery: convergence under frame loss, deterministic seeding,
   idempotent re-execution under duplication, degraded-mode achievement
   around dead devices, recovery re-sync, standby replay of in-flight
   requests, and diagnosis over a faulty management channel. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

(* Plain substring search, for asserting on error messages. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Device handles of the VPN testbed by scenario-agent name. *)
let vpn_device v = function
  | "A" -> v.Scenarios.tb.Netsim.Testbeds.ra
  | "B" -> v.Scenarios.tb.Netsim.Testbeds.rb
  | "C" -> v.Scenarios.tb.Netsim.Testbeds.rc
  | n -> failwith ("no such vpn router: " ^ n)

let path_devices (p : Path_finder.path) =
  List.sort_uniq compare
    (List.map (fun (v : Path_finder.visit) -> v.Path_finder.v_mod.Ids.dev) p.Path_finder.visits)

(* --- convergence under loss --------------------------------------------------- *)

let test_lossy_convergence () =
  let v = Scenarios.build_vpn ~fault_seed:42 () in
  Mgmt.Faults.set_drop v.Scenarios.faults 0.3;
  (* rediscovery and goal achievement both run over the lossy channel *)
  Nm.harvest_potentials v.Scenarios.nm v.Scenarios.scope;
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve under 30%% loss: %s" e);
  check tbool "VPN works despite 30% mgmt loss" true (Scenarios.vpn_reachable v);
  let rc = Mgmt.Reliable.counters v.Scenarios.transport in
  check tbool "frames were dropped" true
    (List.assoc "dropped" (Mgmt.Faults.obs_counters v.Scenarios.faults) > 0);
  check tbool "losses were retransmitted" true (rc.Mgmt.Reliable.retransmits > 0);
  check tint "no destination abandoned" 0 rc.Mgmt.Reliable.gave_up

let test_lossy_determinism () =
  let run seed =
    let v = Scenarios.build_vpn ~fault_seed:seed () in
    Mgmt.Faults.set_drop v.Scenarios.faults 0.3;
    Nm.harvest_potentials v.Scenarios.nm v.Scenarios.scope;
    ignore (Nm.achieve v.Scenarios.nm v.Scenarios.goal);
    let rc = Mgmt.Reliable.counters v.Scenarios.transport in
    ( List.assoc "dropped" (Mgmt.Faults.obs_counters v.Scenarios.faults),
      rc.Mgmt.Reliable.retransmits,
      Nm.stats_sent v.Scenarios.nm )
  in
  let d1, r1, s1 = run 9 in
  let d2, r2, s2 = run 9 in
  check tint "same seed => same drops" d1 d2;
  check tint "same seed => same retransmits" r1 r2;
  check tint "same seed => same NM sends" s1 s2;
  check tbool "faults actually fired" true (d1 > 0 && r1 > 0)

let test_duplication_idempotent () =
  let v = Scenarios.build_vpn ~fault_seed:5 () in
  Mgmt.Faults.set_duplicate v.Scenarios.faults 0.4;
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve under duplication: %s" e);
  check tbool "VPN works despite duplicated frames" true (Scenarios.vpn_reachable v);
  check tbool "duplicates were suppressed" true
    ((Mgmt.Reliable.counters v.Scenarios.transport).Mgmt.Reliable.duplicates > 0);
  check tbool "no bundle applied twice / no errors" true (Nm.errors v.Scenarios.nm = [])

(* --- dead transit device (the acceptance scenario) ----------------------------- *)

let test_crash_transit_error_then_recovery () =
  let v = Scenarios.build_vpn () in
  let rb = vpn_device v "B" in
  (* B dies after discovery, before configuration *)
  Netsim.Device.crash rb;
  Mgmt.Faults.crash v.Scenarios.faults "id-B";
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> Alcotest.fail "achieve through a dead transit device claimed success"
  | Error e ->
      check tbool (Printf.sprintf "error names the dead device (%s)" e) true
        (contains_sub e "id-B"));
  check tbool "B marked unreachable" false
    (Topology.is_reachable (Nm.topology v.Scenarios.nm) "id-B");
  check tbool "transport reported the abandonment" true
    ((Mgmt.Reliable.counters v.Scenarios.transport).Mgmt.Reliable.gave_up > 0);
  (* B restarts and announces itself: the NM re-learns it and the goal
     becomes achievable again *)
  Netsim.Device.restart rb;
  Mgmt.Faults.restart v.Scenarios.faults "id-B";
  Agent.announce (List.assoc "B" v.Scenarios.agents) v.Scenarios.tb.Netsim.Testbeds.vpn_net;
  Nm.run v.Scenarios.nm;
  check tbool "B reachable again after Hello" true
    (Topology.is_reachable (Nm.topology v.Scenarios.nm) "id-B");
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve after restart: %s" e);
  check tbool "device reconfigured after restart" true (Scenarios.vpn_reachable v)

let test_diamond_routes_around_dead_core () =
  let d = Scenarios.build_diamond () in
  (* learn which transit core the NM would pick *)
  let chosen =
    match Nm.achieve ~configure:false d.Scenarios.dnm d.Scenarios.dgoal with
    | Ok (_, path, _) ->
        List.find (fun dev -> dev = "id-B1" || dev = "id-B2") (path_devices path)
    | Error e -> Alcotest.failf "clean diamond achieve: %s" e
  in
  let dead_dev =
    if chosen = "id-B1" then d.Scenarios.dtb.Netsim.Testbeds.dia_b1
    else d.Scenarios.dtb.Netsim.Testbeds.dia_b2
  in
  let other = if chosen = "id-B1" then "id-B2" else "id-B1" in
  Netsim.Device.crash dead_dev;
  Mgmt.Faults.crash d.Scenarios.dfaults chosen;
  (match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
  | Ok (_, path, _) ->
      let devs = path_devices path in
      check tbool "routed around the dead core" true (List.mem other devs);
      check tbool "dead core avoided" false (List.mem chosen devs)
  | Error e -> Alcotest.failf "achieve should route around the dead core: %s" e);
  check tbool "dead core marked unreachable" false
    (Topology.is_reachable (Nm.topology d.Scenarios.dnm) chosen);
  check tbool "data plane converged via the other core" true (Scenarios.diamond_reachable d)

(* --- recovery re-sync of active scripts --------------------------------------- *)

let test_restart_resyncs_active_scripts () =
  let v = Scenarios.build_vpn () in
  (match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "initial achieve: %s" e);
  check tbool "configured" true (Scenarios.vpn_reachable v);
  let rb = vpn_device v "B" in
  Netsim.Device.crash rb;
  Mgmt.Faults.crash v.Scenarios.faults "id-B";
  (* the NM notices when it next needs B *)
  let ok, detail = Nm.self_test v.Scenarios.nm (Ids.v "IP" "i" "id-B") in
  check tbool (Printf.sprintf "self-test fails while down (%s)" detail) false ok;
  check tbool "B unreachable" false (Topology.is_reachable (Nm.topology v.Scenarios.nm) "id-B");
  let acks () = List.assoc "acks" (Nm.obs_counters v.Scenarios.nm) in
  let acks_before = acks () in
  Netsim.Device.restart rb;
  Mgmt.Faults.restart v.Scenarios.faults "id-B";
  Agent.announce (List.assoc "B" v.Scenarios.agents) v.Scenarios.tb.Netsim.Testbeds.vpn_net;
  Nm.run v.Scenarios.nm;
  (* the Hello triggered re-showPotential + re-sync of B's script slices *)
  check tbool "reachable again" true (Topology.is_reachable (Nm.topology v.Scenarios.nm) "id-B");
  check tbool "script slices re-acked on re-sync" true (acks () > acks_before);
  check tbool "no errors from idempotent re-execution" true (Nm.errors v.Scenarios.nm = []);
  check tbool "VPN works after warm restart + re-sync" true (Scenarios.vpn_reachable v)

(* --- standby failover with in-flight requests (§V) ----------------------------- *)

let test_standby_reissues_inflight () =
  let v = Scenarios.build_vpn () in
  let target = Ids.v "IP" "g" "id-A" in
  (* the primary is partitioned from id-A mid-request: the assignment is
     issued but never confirmed *)
  Mgmt.Faults.partition v.Scenarios.faults "id-A";
  Nm.assign_address v.Scenarios.nm ~target ~addr:"10.0.9.1" ~plen:24;
  check tint "request still in flight at the primary" 1 (Nm.inflight_count v.Scenarios.nm);
  check tbool "partition drops counted" true
    (List.assoc "partition_drops" (Mgmt.Faults.obs_counters v.Scenarios.faults) > 0);
  check tbool "address not applied" false
    (Netsim.Device.is_local_addr (vpn_device v "A") (Packet.Ipv4_addr.of_string "10.0.9.1"));
  (* warm standby takes over; the partition heals; the standby replays the
     unconfirmed request under its own identity *)
  let standby =
    Nm.create ~transport:v.Scenarios.transport ~chan:v.Scenarios.chan
      ~net:v.Scenarios.tb.Netsim.Testbeds.vpn_net ~my_id:"id-NM2" ()
  in
  Nm.replicate_to v.Scenarios.nm ~standby;
  check tint "in-flight replicated" 1 (Nm.inflight_count standby);
  Mgmt.Faults.heal v.Scenarios.faults "id-A";
  Nm.take_over standby;
  check tint "standby saw the replayed request confirmed" 0 (Nm.inflight_count standby);
  check tbool "address applied exactly once, by the standby's replay" true
    (Netsim.Device.is_local_addr (vpn_device v "A") (Packet.Ipv4_addr.of_string "10.0.9.1"))

(* --- diagnosis under injected faults ------------------------------------------- *)

let test_diagnose_localises_over_lossy_channel () =
  let v = Scenarios.build_vpn ~fault_seed:11 () in
  (* the GRE path: its IP modules ping their tunnel peers on self-test, so
     hop-by-hop diagnosis can localise a cut wire *)
  let path =
    List.find Scenarios.pure_gre (Nm.find_paths v.Scenarios.nm v.Scenarios.goal)
  in
  let (_ : Script_gen.script) = Nm.configure_path v.Scenarios.nm v.Scenarios.goal path in
  (* cut the A--B wire, and make the management channel lossy while the NM
     diagnoses: self-tests are retried, so the verdicts stay trustworthy *)
  let seg = Option.get (Netsim.Net.find_segment v.Scenarios.tb.Netsim.Testbeds.vpn_net "A--B") in
  Netsim.Link.cut seg;
  Mgmt.Faults.set_drop v.Scenarios.faults 0.2;
  let verdicts = Nm.diagnose v.Scenarios.nm path in
  let failing = List.filter (fun (_, ok, _) -> not ok) verdicts in
  check tbool "failure detected" true (failing <> []);
  (* localisation: walking from the A side, the first failing module sits
     on one of the devices adjacent to the cut wire *)
  (match failing with
  | (m, _, _) :: _ ->
      check tbool
        (Fmt.str "first failure (%a) is adjacent to the cut" Ids.pp m)
        true
        (m.Ids.dev = "id-A" || m.Ids.dev = "id-B")
  | [] -> ());
  check tbool "retries kept diagnosis running despite loss" true
    ((Mgmt.Reliable.counters v.Scenarios.transport).Mgmt.Reliable.retransmits > 0);
  Netsim.Link.restore seg;
  Mgmt.Faults.set_drop v.Scenarios.faults 0.;
  let verdicts = Nm.diagnose v.Scenarios.nm path in
  check tbool "healthy again after restore" true (List.for_all (fun (_, ok, _) -> ok) verdicts)

let test_diagnose_dead_transit_no_hang () =
  let v = Scenarios.build_vpn () in
  let path =
    match Nm.achieve v.Scenarios.nm v.Scenarios.goal with
    | Ok (_, path, _) -> path
    | Error e -> Alcotest.failf "achieve: %s" e
  in
  let rb = vpn_device v "B" in
  Netsim.Device.crash rb;
  Mgmt.Faults.crash v.Scenarios.faults "id-B";
  (* hop-by-hop: every module on the dead device fails, the fault is
     localised to id-B, and nothing hangs or raises *)
  let verdicts = Nm.diagnose v.Scenarios.nm path in
  List.iter
    (fun ((m : Ids.t), ok, _) ->
      if m.Ids.dev = "id-B" then
        check tbool (Fmt.str "%a reported down" Ids.pp m) false ok)
    verdicts;
  check tbool "a fault was found" true (List.exists (fun (_, ok, _) -> not ok) verdicts);
  let ok, _ = Nm.probe_end_to_end v.Scenarios.nm path in
  check tbool "end-to-end probe fails cleanly" false ok;
  (* warm restart: config survived, so the data plane recovers *)
  Netsim.Device.restart rb;
  Mgmt.Faults.restart v.Scenarios.faults "id-B";
  Agent.announce (List.assoc "B" v.Scenarios.agents) v.Scenarios.tb.Netsim.Testbeds.vpn_net;
  Nm.run v.Scenarios.nm;
  let ok, detail = Nm.probe_end_to_end v.Scenarios.nm path in
  check tbool (Printf.sprintf "end-to-end probe passes after restart (%s)" detail) true ok

let () =
  Alcotest.run "faults"
    [
      ( "loss",
        [
          Alcotest.test_case "achieve converges under 30% loss" `Quick test_lossy_convergence;
          Alcotest.test_case "seeded determinism" `Quick test_lossy_determinism;
          Alcotest.test_case "duplication is idempotent" `Quick test_duplication_idempotent;
        ] );
      ( "dead-device",
        [
          Alcotest.test_case "crash -> error naming device -> recovery" `Quick
            test_crash_transit_error_then_recovery;
          Alcotest.test_case "diamond routes around dead core" `Quick
            test_diamond_routes_around_dead_core;
          Alcotest.test_case "restart re-syncs active scripts" `Quick
            test_restart_resyncs_active_scripts;
        ] );
      ( "failover",
        [ Alcotest.test_case "standby replays in-flight requests" `Quick test_standby_reissues_inflight ] );
      ( "diagnosis",
        [
          Alcotest.test_case "localises over a lossy channel" `Quick
            test_diagnose_localises_over_lossy_channel;
          Alcotest.test_case "dead transit: no hang, then recovery" `Quick
            test_diagnose_dead_transit_no_hang;
        ] );
    ]

(* Scenario tests for the federated multi-NM subsystem (lib/federation):
   domain adverts export only border modules and an abridged summary (no
   raw topology leaks), a cross-domain goal converges to the exact
   configuration a single NM owning everything would produce, the
   distributed back-out leaves no domain half-configured, conveyMessage
   traffic is relayed NM-to-NM across the domain boundary, and neither NM
   ever writes configuration into the other's domain. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tick_ns = 500_000_000L
let fed_counter k node = List.assoc k (Federation.Fed.obs_counters node)
let nm_counter k node = List.assoc k (Nm.obs_counters (Federation.Fed.nm node))

(* The structural part of a show_actual report (see Monitor.structural_keys);
   a device that does not answer fails the test. *)
let structural_keys nm dev =
  match Nm.show_actual nm dev with
  | None -> Alcotest.failf "no showActual answer from %s" dev
  | Some state -> Monitor.structural_keys state

let owner_nm (t : Federation.Fed_scenarios.two_domain) dev =
  if List.mem dev t.Federation.Fed_scenarios.fwest_devices then
    Federation.Fed.nm t.Federation.Fed_scenarios.fwest
  else Federation.Fed.nm t.Federation.Fed_scenarios.feast

(* --- trust boundary: what a domain advertises -------------------------------- *)

let test_advert_exports_only_borders () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let open Federation.Fed_scenarios in
  (match Federation.Fed.advert t.fwest with
  | Wire.Fed_advert { domain; borders; summary; devices; _ } ->
      check Alcotest.string "west advertises its domain name" "west" domain;
      check (Alcotest.list Alcotest.string) "west advertises exactly its own devices"
        t.fwest_devices devices;
      (* border modules live only on devices with links leaving the owned
         set: id-R2 (towards the east domain) and id-R1 (towards the
         customer attachment) — never on interior devices *)
      check tbool "the inter-domain border router is advertised" true
        (List.exists (fun (m : Ids.t) -> m.Ids.dev = "id-R2") borders);
      List.iter
        (fun (m : Ids.t) ->
          check tbool "border modules live on border routers only" true
            (m.Ids.dev = "id-R1" || m.Ids.dev = "id-R2"))
        borders;
      (* the summary is per-address-domain counts — an abridged view *)
      check tbool "summary counts the ISP address domain" true
        (List.mem_assoc "ISP" summary)
  | _ -> Alcotest.fail "advert is not a Fed_advert");
  (* the advert never made the peer's NM learn internal modules: the east
     NM's topology holds no module abstractions for west-internal devices *)
  let east_topo = Nm.topology (Federation.Fed.nm t.feast) in
  List.iter
    (fun dev ->
      match Topology.device east_topo dev with
      | None -> ()
      | Some di ->
          check tint (Printf.sprintf "no module abstractions for %s leaked east" dev) 0
            (List.length di.Topology.di_modules))
    t.fwest_devices

(* --- fault-free cross-domain achieve + single-NM parity ----------------------- *)

let test_cross_domain_achieve_parity () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let open Federation.Fed_scenarios in
  let gid = Federation.Fed.submit t.fwest t.fgoal in
  check tbool "cross-domain goal converges" true (converge t gid);
  check tbool "customer edges reachable" true (two_domain_reachable t);
  check tint "west never wrote into east" 0 (nm_counter "foreign_writes" t.fwest);
  check tint "east never wrote into west" 0 (nm_counter "foreign_writes" t.feast);
  (* equivalent single-NM run over the same testbed *)
  let c = Scenarios.build_chain 4 in
  (match Nm.achieve c.Scenarios.cnm c.Scenarios.cgoal with
  | Error e -> Alcotest.failf "single-NM achieve failed: %s" e
  | Ok _ -> ());
  Nm.run c.Scenarios.cnm;
  List.iter
    (fun dev ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "configuration of %s matches the single-NM run" dev)
        (structural_keys c.Scenarios.cnm dev)
        (structural_keys (owner_nm t dev) dev))
    t.fscope

(* --- cross-domain conveyMessage relay ----------------------------------------- *)

let test_convey_relayed_across_domains () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let open Federation.Fed_scenarios in
  let gid = Federation.Fed.submit t.fwest t.fgoal in
  check tbool "goal converges" true (converge t gid);
  (* the chosen chain path tunnels edge-to-edge: the GRE/MPLS peer
     negotiation between id-R1 (west) and id-R4 (east) must have crossed
     the boundary as NM-to-NM Fed_relay traffic *)
  check tbool "west relayed conveys out" true (fed_counter "relays" t.fwest > 0);
  check tbool "east relayed conveys in" true (fed_counter "relays" t.feast > 0);
  let crossed =
    List.exists
      (fun ((src : Ids.t), (dst : Ids.t), _) ->
        List.mem src.Ids.dev t.fwest_devices && List.mem dst.Ids.dev t.feast_devices)
      (Nm.conveys (Federation.Fed.nm t.fwest))
  in
  check tbool "a west->east convey went through the west NM" true crossed

(* --- distributed back-out: no domain left half-configured --------------------- *)

let test_backout_on_peer_crash () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let open Federation.Fed_scenarios in
  let net = Nm.net (Federation.Fed.nm t.fwest) in
  let eq = Netsim.Net.eq net in
  let run_interval () =
    ignore (Netsim.Net.run_until net ~deadline:(Int64.add (Netsim.Event_queue.now eq) tick_ns))
  in
  (* pristine structural baseline, per device *)
  let baseline = List.map (fun dev -> (dev, structural_keys (owner_nm t dev) dev)) t.fscope in
  let gid = Federation.Fed.submit t.fwest t.fgoal in
  (* drive only the west node: the east NM's handlers still execute its
     delegated slices (message-driven), but its tick never runs, so no
     commit ack is ever sent — then crash the east station entirely *)
  for tick = 0 to 2 do
    Federation.Fed.tick t.fwest ~tick;
    run_interval ()
  done;
  check tbool "west is still waiting for the east ack" false
    (Federation.Fed.achieved t.fwest gid);
  Mgmt.Faults.crash t.ffaults east_station;
  (* commit_timeout ticks later the west coordinator gives up and drives
     the distributed back-out; the east station is down so the abort can
     only be acknowledged after it returns *)
  for tick = 3 to 20 do
    Federation.Fed.tick t.fwest ~tick;
    run_interval ()
  done;
  check tbool "west drove a back-out" true (fed_counter "backouts" t.fwest >= 1);
  (* west backed its own slices out: its devices are at the baseline *)
  List.iter
    (fun dev ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "%s backed out to baseline" dev)
        (List.assoc dev baseline)
        (structural_keys (owner_nm t dev) dev))
    t.fwest_devices;
  (* east returns: the re-sent abort dismantles its half, then the
     coordinator replans and the goal converges for real *)
  Mgmt.Faults.restart t.ffaults east_station;
  let converged =
    let rec go tick =
      if Federation.Fed.achieved t.fwest gid then true
      else if tick > 80 then false
      else begin
        Federation.Fed.tick t.fwest ~tick;
        Federation.Fed.tick t.feast ~tick;
        run_interval ();
        go (tick + 1)
      end
    in
    go 21
  in
  check tbool "goal converges after the east NM returns" true converged;
  check tbool "east executed at least one abort" true
    (fed_counter "delegated_aborted" t.feast >= 1);
  check tbool "customer edges reachable" true (two_domain_reachable t);
  check tint "west never wrote into east" 0 (nm_counter "foreign_writes" t.fwest);
  check tint "east never wrote into west" 0 (nm_counter "foreign_writes" t.feast);
  (* final state parity: the aborted round left no residue anywhere *)
  let c = Scenarios.build_chain 4 in
  (match Nm.achieve c.Scenarios.cnm c.Scenarios.cgoal with
  | Error e -> Alcotest.failf "single-NM achieve failed: %s" e
  | Ok _ -> ());
  Nm.run c.Scenarios.cnm;
  List.iter
    (fun dev ->
      check (Alcotest.list Alcotest.string)
        (Printf.sprintf "%s carries no residue from the aborted round" dev)
        (structural_keys c.Scenarios.cnm dev)
        (structural_keys (owner_nm t dev) dev))
    t.fscope

(* --- the write boundary is enforced, not just observed ------------------------ *)

let test_foreign_slice_refused () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let open Federation.Fed_scenarios in
  (* hand-deliver a commit whose slice names a west device to the east
     node: it must refuse with Fed_commit_err and never configure *)
  let nm_w = Federation.Fed.nm t.fwest in
  let before = structural_keys nm_w "id-R1" in
  let rogue =
    Wire.Fed_commit
      {
        domain = "west";
        gid = 999;
        slices =
          [
            ( "id-R1",
              [ Primitive.Delete_pipe { owner = Ids.v "GRE" "l" "id-R1"; pipe_id = "PX" } ] );
          ];
        reporter = None;
      }
  in
  Nm.send_msg nm_w ~dst:east_station rogue;
  Nm.run nm_w;
  Federation.Fed.tick t.feast ~tick:1;
  Nm.run nm_w;
  check tint "east received the commit" 1 (fed_counter "commits_in" t.feast);
  check tbool "east tombstoned the rogue commit" true
    (fed_counter "delegated_aborted" t.feast >= 1);
  check tint "east wrote nothing across the boundary" 0
    (nm_counter "foreign_writes" t.feast);
  check (Alcotest.list Alcotest.string) "the west device is untouched" before
    (structural_keys nm_w "id-R1")

(* --- per-domain knowledge partitions the single-NM knowledge -------------------- *)

let test_domain_maps_partition_chain () =
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let c = Scenarios.build_chain 4 in
  let md nm = (Nm.topology nm).Topology.module_domains in
  let west = md (Federation.Fed.nm t.Federation.Fed_scenarios.fwest) in
  let east = md (Federation.Fed.nm t.Federation.Fed_scenarios.feast) in
  let owned devices = List.for_all (fun ((m : Ids.t), _) -> List.mem m.Ids.dev devices) in
  check tbool "west knows only west modules" true
    (west <> [] && owned t.Federation.Fed_scenarios.fwest_devices west);
  check tbool "east knows only east modules" true
    (east <> [] && owned t.Federation.Fed_scenarios.feast_devices east);
  let render l = List.sort compare (List.map (fun (m, d) -> Ids.to_string m ^ "=" ^ d) l) in
  check (Alcotest.list Alcotest.string) "west + east = single-NM map" (render (md c.Scenarios.cnm))
    (render (west @ east))

let () =
  Alcotest.run "federation"
    [
      ( "federation",
        [
          Alcotest.test_case "advert exports only borders and summary" `Quick
            test_advert_exports_only_borders;
          Alcotest.test_case "cross-domain achieve matches single-NM configuration" `Quick
            test_cross_domain_achieve_parity;
          Alcotest.test_case "conveyMessage is relayed across the boundary" `Quick
            test_convey_relayed_across_domains;
          Alcotest.test_case "back-out leaves no domain half-configured" `Quick
            test_backout_on_peer_crash;
          Alcotest.test_case "a slice naming a foreign device is refused" `Quick
            test_foreign_slice_refused;
          Alcotest.test_case "west and east domain maps partition the chain's" `Quick
            test_domain_maps_partition_chain;
        ] );
    ]

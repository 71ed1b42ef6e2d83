(* The federated counterpart of Scenarios.build_chain: the same n-router
   chain testbed, partitioned into a west and an east administrative
   domain, each owned by its own NM on the shared out-of-band management
   channel. Every agent is homed to its domain's NM station, each NM
   discovers and harvests only its own devices, and module-domain
   knowledge is entered per domain — the only cross-domain knowledge is
   the customer prefix map both operators hold. The cross-domain goal is
   the exact goal build_chain poses to a single NM, which is what makes
   the configuration-parity check meaningful. *)

open Conman

let west_station = "id-NM-W"
let east_station = "id-NM-E"

type two_domain = {
  ftb : Netsim.Testbeds.chain;
  fchan : Mgmt.Channel.t;
  ffaults : Mgmt.Faults.t;
  ftransport : Mgmt.Reliable.t;
  fadmission : Mgmt.Admission.t;
  fwest : Fed.t;
  feast : Fed.t;
  fgoal : Path_finder.goal;
  fscope : string list;
  fwest_devices : string list;
  feast_devices : string list;
  fagents : (string * Agent.t) list;
}

let build_two_domain ?fault_seed n =
  let tb = Netsim.Testbeds.chain n in
  let ids = List.map (fun d -> d.Netsim.Device.dev_id) (Array.to_list tb.Netsim.Testbeds.routers) in
  let west_devices = List.filteri (fun i _ -> i < n / 2) ids in
  let east_devices = List.filteri (fun i _ -> i >= n / 2) ids in
  (* same module layout as build_chain, so the single-NM run over the same
     testbed produces the same plan space *)
  let d =
    Scenarios.deploy ?fault_seed `Oob tb.chain_net ~attach_to:tb.routers.(0)
      ~stations:[ (west_station, west_devices); (east_station, east_devices) ]
      (Scenarios.chain_layout tb)
  in
  let nm_w, nm_e = match Scenarios.bring_up d with [ w; e ] -> (w, e) | _ -> assert false in
  let west = Fed.create ~nm:nm_w ~domain:"west" ~devices:west_devices ~peers:[ east_station ] () in
  let east = Fed.create ~nm:nm_e ~domain:"east" ~devices:east_devices ~peers:[ west_station ] () in
  Fed.announce west;
  Fed.announce east;
  Nm.run nm_w;
  {
    ftb = tb;
    fchan = d.chan;
    ffaults = d.faults;
    ftransport = d.transport;
    fadmission = d.admission;
    fwest = west;
    feast = east;
    fgoal = Scenarios.chain_goal tb;
    fscope = ids;
    fwest_devices = west_devices;
    feast_devices = east_devices;
    fagents = List.map (fun (dev, a) -> (dev.Netsim.Device.dev_id, a)) d.agents;
  }

let two_domain_reachable t = Netsim.Testbeds.chain_reachable t.ftb

(* Full observability over the deployment: one span collector per NM
   station (west agents report into west's, east into east's), the shared
   channel stack's retry/shed events routed back to goal spans, every
   layer's counters in one registry, and both Fed nodes feeding the
   per-phase latency histograms. *)
let instrument t =
  let obs = Observe.create () in
  let w_agents = List.filter (fun (id, _) -> List.mem id t.fwest_devices) t.fagents in
  let e_agents = List.filter (fun (id, _) -> List.mem id t.feast_devices) t.fagents in
  ignore
    (Observe.attach_nm obs ~prefix:"west" ~agents:w_agents ~transport:t.ftransport
       ~admission:t.fadmission ~faults:t.ffaults ~station:west_station (Fed.nm t.fwest));
  (* the channel stack is shared, so its observers/counters attach once *)
  ignore (Observe.attach_nm obs ~prefix:"east" ~agents:e_agents ~station:east_station (Fed.nm t.feast));
  let reg = Observe.registry obs in
  Fed.set_registry t.fwest reg;
  Fed.set_registry t.feast reg;
  Obs.Registry.register reg "fed_west" (fun () -> Fed.obs_counters t.fwest);
  Obs.Registry.register reg "fed_east" (fun () -> Fed.obs_counters t.feast);
  Observe.attach_net obs (Nm.net (Fed.nm t.fwest));
  Observe.attach_rings obs;
  obs

(* Drives both federation nodes a bounded interval per tick until the goal
   is achieved — the fault-free drive; the chaos engine has its own with
   fault injection interleaved. *)
let converge ?obs ?(interval_ns = 500_000_000L) ?(max_ticks = 40) t gid =
  let net = Nm.net (Fed.nm t.fwest) in
  let eq = Netsim.Net.eq net in
  let rec go tick =
    (match obs with Some o -> Observe.set_tick o tick | None -> ());
    if Fed.achieved t.fwest gid || Fed.achieved t.feast gid then true
    else if tick >= max_ticks then false
    else begin
      Fed.tick t.fwest ~tick;
      Fed.tick t.feast ~tick;
      ignore (Netsim.Net.run_until net ~deadline:(Int64.add (Netsim.Event_queue.now eq) interval_ns));
      go (tick + 1)
    end
  in
  go 0

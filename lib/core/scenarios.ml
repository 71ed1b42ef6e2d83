(* Ready-made CONMan deployments of the paper's experimental set-ups:
   the figure-4 VPN testbed and the figure-9 switch chain, with management
   agents, protocol modules and an NM wired to either management channel
   (§III-A: pre-configured out-of-band, or raw in-band flooding). *)

open Netsim

let nm_station_id = "id-NM"

(* Station id of the warm-standby NM in HA deployments (see Ha). *)
let standby_station_id = "id-NM2"

type channel_kind = [ `Oob | `Raw ]

(* Admission class of an outgoing payload: decode the wire message and ask
   it. Undecodable payloads (which senders never produce, but the layer
   must be total) rank as interrogation — sheddable, but never ahead of
   telemetry. *)
let classify_payload payload =
  Mgmt.Admission.priority_of_int
    (match Wire.decode payload with exception _ -> 2 | msg -> Wire.priority_of msg)

(* One device's protocol modules, as its agent exposes them: everything
   the NM learns about a device comes from these (Hello + showPotential). *)
type spec =
  | Eth of string * int list * bool (* module id, ports, switching *)
  | Ip of string * string list * string (* module id, interfaces, address domain *)
  | Gre of string
  | Mpls of string
  | Esp of string
  | Ike of string
  | Vlan of string

type layout = (Device.t * spec list) list

(* A router's ETH module: one port, no switching. *)
let port mid p = Eth (mid, [ p ], false)

(* A switch's ETH module: every port, switching. *)
let switch_eth mid sw = Eth (mid, List.init (Array.length sw.Device.ports) Fun.id, true)

(* The operator's address-domain knowledge: which IP module serves which
   domain, read off the layout's Ip specs. Last registered first: a Fed
   advert summarises domains in this order. *)
let domains_of (layout : layout) =
  List.fold_left
    (fun acc (dev, specs) ->
      List.fold_left
        (fun acc -> function
          | Ip (mid, _, domain) -> (Ids.v "IP" mid dev.Device.dev_id, domain) :: acc
          | _ -> acc)
        acc specs)
    [] layout

let customer_prefixes = [ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ]

(* "Connect S1 and S2 of customer C1", from ETH module a on the first
   device of [scope] to ETH module f on the last. *)
let goal ~tradeoffs scope =
  {
    Path_finder.g_from = Ids.v "ETH" "a" (List.hd scope);
    g_to = Ids.v "ETH" "f" (List.nth scope (List.length scope - 1));
    g_customer = "C1";
    g_src_domain = "C1-S1";
    g_dst_domain = "C1-S2";
    g_src_site = "S1";
    g_dst_site = "S2";
    g_tradeoffs = tradeoffs;
    g_scope = scope;
  }

let default_tradeoffs = [ "in-order-delivery"; "low-error-rate" ]

type deployment = {
  net : Net.t;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  stations : (string * string list) list;
  layout : layout;
  agents : (Device.t * Agent.t) list;
  ip_handles : (string * Ip_module.handle) list;
}

let eth_neighbours net dev i =
  Net.neighbours net dev i
  |> List.map (fun (d, pi) ->
         (d.Device.dev_id, (Device.port d pi).Device.port_name))

(* Builds the channel stack (base channel, fault injection, reliable
   delivery, overload admission on top), then an agent per layout entry
   homed to the station whose scope holds its device, with the entry's
   modules registered in order. With default knobs the fault layer is a
   no-op and the admission layer passes everything; [fault_seed] keeps any
   injected faults deterministic. For the raw in-band channel a management
   station device is created and wired to [attach_to]. Devices outside
   every scope (the VPN's hosts) still get agents, homed to the first
   station, but are left out of [agents] and never announced. *)
let deploy ?(fault_seed = 42) kind net ~attach_to ~stations layout =
  let base =
    match kind with
    | `Oob -> Mgmt.Channel.Oob.create (Net.eq net)
    | `Raw ->
        let chan, attach = Mgmt.Channel.Raw.create () in
        let nms = Net.add_device net ~id:nm_station_id ~name:"NMS" in
        ignore (Device.add_port ~name:"mgmt0" nms);
        let host_port = Device.add_port ~name:"mgmt" attach_to in
        let _ =
          Net.connect net ~name:"NMS-uplink" (nms, 0) (attach_to, host_port.Device.port_index)
        in
        List.iter attach (nms :: List.map fst layout);
        chan
  in
  let faulty, faults = Mgmt.Faults.wrap ~seed:fault_seed ~eq:(Net.eq net) base in
  let reliable, transport =
    Mgmt.Reliable.create
      ~classify:(fun payload -> Mgmt.Admission.priority_index (classify_payload payload))
      ~eq:(Net.eq net) faulty
  in
  let chan, admission = Mgmt.Admission.wrap ~eq:(Net.eq net) ~classify:classify_payload reliable in
  let station_of dev =
    List.find_opt (fun (_, scope) -> List.mem dev.Device.dev_id scope) stations |> Option.map fst
  in
  let ip_handles = ref [] in
  let setup (dev, specs) =
    let home = Option.value (station_of dev) ~default:(fst (List.hd stations)) in
    let agent = Agent.create ~chan ~nm_device:home dev in
    let env = Agent.env agent in
    let mref name mid = Ids.v name mid dev.Device.dev_id in
    let plain make name mid = Agent.register agent (make ~env ~mref:(mref name mid) ()) in
    List.iter
      (function
        | Eth (mid, ports, switching) ->
            Agent.register agent
              (Eth_module.make ~env ~mref:(mref "ETH" mid) ~ports ~switching
                 ~neighbours:(eth_neighbours net dev) ())
        | Ip (mid, ifaces, domain) ->
            let impl, handle = Ip_module.make ~env ~mref:(mref "IP" mid) ~ifaces ~domain () in
            ip_handles := (mid, handle) :: !ip_handles;
            Agent.register agent impl
        | Gre mid -> plain Gre_module.make "GRE" mid
        | Mpls mid -> plain Mpls_module.make "MPLS" mid
        | Esp mid -> plain Esp_module.make "ESP" mid
        | Ike mid -> plain Ike_module.make "IKE" mid
        | Vlan mid -> plain Vlan_module.make "VLAN" mid)
      specs;
    (dev, agent)
  in
  let agents = List.map setup layout in
  let agents = List.filter (fun (dev, _) -> station_of dev <> None) agents in
  { net; chan; faults; transport; admission; stations; layout; agents; ip_handles = !ip_handles }

(* Discovery for NMs over a deployment's agents: every agent announces,
   one run delivers the Hellos to all stations on the shared network, then
   each NM harvests its scope and learns the address domains of the IP
   modules in it. Switch-only layouts have no address domains, so their
   NMs learn none. *)
let adopt net agents layout nms =
  List.iter (fun a -> Agent.announce a net) agents;
  Nm.run (fst (List.hd nms));
  List.iter (fun (nm, scope) -> Nm.harvest_potentials nm scope) nms;
  let domains = domains_of layout in
  if domains <> [] then
    List.iter
      (fun (nm, scope) ->
        Topology.set_domains (Nm.topology nm)
          ~module_domains:(List.filter (fun ((m : Ids.t), _) -> List.mem m.Ids.dev scope) domains)
          ~domain_prefixes:customer_prefixes)
      nms

(* Creates one NM per station, in order, and brings them all up. *)
let bring_up d =
  let nms =
    List.map
      (fun (station, scope) ->
        (Nm.create ~transport:d.transport ~chan:d.chan ~net:d.net ~my_id:station (), scope))
      d.stations
  in
  adopt d.net (List.map snd d.agents) d.layout nms;
  List.map fst nms

let device_ids devices = List.map (fun d -> d.Device.dev_id) devices

(* --- figure 4: the VPN testbed --------------------------------------------- *)

type vpn = {
  tb : Testbeds.vpn;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  nm : Nm.t;
  goal : Path_finder.goal;
  scope : string list;
  agents : (string * Agent.t) list; (* device name -> agent *)
  ip_handles : (string * Ip_module.handle) list; (* module id -> handle *)
}

let vpn_scope = [ "id-A"; "id-B"; "id-C" ]
let vpn_goal ?(tradeoffs = default_tradeoffs) () = goal ~tradeoffs vpn_scope

(* Figure 4's router A, also the first router of every chain. *)
let edge_a =
  [
    port "a" 0; (* eth1, customer-facing *)
    port "b" 1; (* eth2, core-facing *)
    Ip ("g", [ "eth1" ], "C1");
    Ip ("h", [ "eth2" ], "ISP");
    Gre "l";
    Mpls "o";
  ]

(* Module layout of figure 4(b); [secure] adds the figure-1 IPsec pair (an
   ESP data module depending on an IKE control module) at the edges. *)
let vpn_layout ~secure (tb : Testbeds.vpn) =
  let sec esp ike = if secure then [ Esp esp; Ike ike ] else [] in
  [
    (tb.ra, edge_a @ sec "s" "m");
    (tb.rb, [ port "c" 0; port "d" 1; Ip ("i", [ "eth1"; "eth2" ], "ISP"); Mpls "p" ]);
    ( tb.rc,
      [
        port "e" 1; (* eth2, core-facing *)
        port "f" 0; (* eth1, customer-facing *)
        Ip ("j", [ "eth2" ], "ISP");
        Ip ("k", [ "eth1" ], "C1");
        Gre "n";
        Mpls "q";
      ]
      @ sec "t" "w" );
  ]

let build_vpn ?(channel = `Oob) ?(secure = false) ?tradeoffs ?fault_seed () =
  let tb = Testbeds.vpn () in
  (* The customer hosts also run management agents with a single IP module
     each, so module-level filter rules can be resolved against them
     (section II-E's example). Only reachable over the out-of-band channel;
     the customer routers run no agents to flood through. *)
  let hosts =
    if channel = `Oob then
      [ (tb.host1, [ Ip ("x", [ "eth0" ], "C1") ]); (tb.host2, [ Ip ("y", [ "eth0" ], "C1") ]) ]
    else []
  in
  let d =
    deploy ?fault_seed channel tb.vpn_net ~attach_to:tb.rb
      ~stations:[ (nm_station_id, vpn_scope) ]
      (vpn_layout ~secure tb @ hosts)
  in
  let nm = List.hd (bring_up d) in
  {
    tb;
    chan = d.chan;
    faults = d.faults;
    transport = d.transport;
    admission = d.admission;
    nm;
    goal = vpn_goal ?tradeoffs ();
    scope = vpn_scope;
    agents = List.map (fun (dev, a) -> (dev.Device.dev_name, a)) d.agents;
    ip_handles = d.ip_handles;
  }

let vpn_reachable v = Testbeds.vpn_reachable v.tb

(* Re-runs discovery for a replacement NM over the same testbed: agents
   re-announce (their Hellos now reach the new NM, which subscribed under
   the same station id), potentials are harvested and the operator's
   domain knowledge re-entered. The second half of an NM restart; pair it
   with [Nm.recover] to re-converge the journalled intents. *)
let vpn_adopt v nm =
  (* the IPsec modules carry no address domain, so [secure] is immaterial *)
  adopt v.tb.vpn_net (List.map snd v.agents) (vpn_layout ~secure:false v.tb) [ (nm, v.scope) ]

(* --- generalised n-router chain (Table VI sweep) ------------------------------ *)

type chain = {
  ctb : Testbeds.chain;
  cchan : Mgmt.Channel.t;
  cfaults : Mgmt.Faults.t;
  ctransport : Mgmt.Reliable.t;
  cadmission : Mgmt.Admission.t;
  cnm : Nm.t;
  cgoal : Path_finder.goal;
  cscope : string list;
}

(* The figure-4 edges at both ends of an n-router core. *)
let chain_layout (tb : Testbeds.chain) =
  let n = Array.length tb.routers in
  List.mapi
    (fun idx dev ->
      let specs =
        if idx = 0 then edge_a
        else if idx = n - 1 then
          [
            port "e" 0; (* eth1, towards the core *)
            port "f" 1; (* eth2, customer-facing *)
            Ip ("j", [ "eth1" ], "ISP");
            Ip ("k", [ "eth2" ], "C1");
            Gre "n";
            Mpls "q";
          ]
        else
          let id = string_of_int (idx + 1) in
          [
            port ("c" ^ id) 0;
            port ("d" ^ id) 1;
            Ip ("i" ^ id, [ "eth1"; "eth2" ], "ISP");
            Mpls ("p" ^ id);
          ]
      in
      (dev, specs))
    (Array.to_list tb.routers)

let chain_goal (tb : Testbeds.chain) =
  goal ~tradeoffs:default_tradeoffs (device_ids (Array.to_list tb.routers))

let build_chain ?(addressed = true) n =
  let tb = Testbeds.chain ~addressed n in
  let scope = device_ids (Array.to_list tb.routers) in
  let d =
    deploy `Oob tb.chain_net ~attach_to:tb.routers.(0) ~stations:[ (nm_station_id, scope) ]
      (chain_layout tb)
  in
  let nm = List.hd (bring_up d) in
  {
    ctb = tb;
    cchan = d.chan;
    cfaults = d.faults;
    ctransport = d.transport;
    cadmission = d.admission;
    cnm = nm;
    cgoal = chain_goal tb;
    cscope = scope;
  }

let chain_reachable c = Testbeds.chain_reachable c.ctb

(* --- diamond: two parallel cores (multi-route experiments) -------------------- *)

type diamond = {
  dtb : Testbeds.diamond;
  dchan : Mgmt.Channel.t;
  dfaults : Mgmt.Faults.t;
  dtransport : Mgmt.Reliable.t;
  dadmission : Mgmt.Admission.t;
  dnm : Nm.t;
  dgoal : Path_finder.goal;
  dscope : string list;
  dagents : (string * Agent.t) list; (* device id -> agent *)
}

let diamond_layout (tb : Testbeds.diamond) =
  [
    ( tb.dia_a,
      [
        port "a" 0;
        port "b1" 1;
        port "b2" 2;
        Ip ("g", [ "eth1" ], "C1");
        Ip ("h", [ "eth2"; "eth3" ], "ISP");
        Gre "l";
        Mpls "o";
      ] );
    (tb.dia_b1, [ port "c1" 0; port "d1" 1; Ip ("i1", [ "eth1"; "eth2" ], "ISP"); Mpls "p1" ]);
    (tb.dia_b2, [ port "c2" 0; port "d2" 1; Ip ("i2", [ "eth1"; "eth2" ], "ISP"); Mpls "p2" ]);
    ( tb.dia_c,
      [
        port "e1" 0;
        port "e2" 1;
        port "f" 2;
        Ip ("j", [ "eth1"; "eth2" ], "ISP");
        Ip ("k", [ "eth3" ], "C1");
        Gre "n";
        Mpls "q";
      ] );
  ]

let build_diamond ?fault_seed () =
  let tb = Testbeds.diamond () in
  let layout = diamond_layout tb in
  let scope = device_ids (List.map fst layout) in
  let d =
    deploy ?fault_seed `Oob tb.dia_net ~attach_to:tb.dia_a
      ~stations:[ (nm_station_id, scope) ]
      layout
  in
  let nm = List.hd (bring_up d) in
  {
    dtb = tb;
    dchan = d.chan;
    dfaults = d.faults;
    dtransport = d.transport;
    dadmission = d.admission;
    dnm = nm;
    dgoal = goal ~tradeoffs:default_tradeoffs scope;
    dscope = scope;
    dagents = List.map (fun (dev, a) -> (dev.Device.dev_id, a)) d.agents;
  }

let diamond_reachable d = Testbeds.diamond_reachable d.dtb

let diamond_adopt d nm =
  adopt d.dtb.dia_net (List.map snd d.dagents) (diamond_layout d.dtb) [ (nm, d.dscope) ]

(* Path classification helpers for picking the pure-GRE/MPLS/IP-IP paths out
   of the enumeration. *)
let path_uses name (p : Path_finder.path) =
  List.exists (fun v -> v.Path_finder.v_mod.Ids.name = name) p.Path_finder.visits

let pure_gre p = path_uses "GRE" p && not (path_uses "MPLS" p)
let pure_mpls p = path_uses "MPLS" p && not (path_uses "GRE" p) && not (List.exists (fun v -> Ids.short v.Path_finder.v_mod = "h") p.Path_finder.visits)
let pure_ipip p =
  (not (path_uses "GRE" p)) && (not (path_uses "MPLS" p)) && not (path_uses "ESP" p)

(* A path satisfying a confidentiality requirement: it crosses an ESP
   module (whose abstraction advertises security). *)
let secure p = path_uses "ESP" p

(* --- figure 9: the VLAN switch chain ----------------------------------------- *)

type vlan = {
  vtb : Testbeds.vlan;
  vchan : Mgmt.Channel.t;
  vfaults : Mgmt.Faults.t;
  vtransport : Mgmt.Reliable.t;
  vadmission : Mgmt.Admission.t;
  vnm : Nm.t;
  vscope : string list;
  vagents : (string * Agent.t) list;
}

let build_vlan ?(channel = `Oob) () =
  let tb = Testbeds.vlan () in
  let layout =
    [
      (tb.swa, [ switch_eth "a" tb.swa; Vlan "d" ]);
      (tb.swb, [ switch_eth "b" tb.swb; Vlan "e" ]);
      (tb.swc, [ switch_eth "c" tb.swc; Vlan "f" ]);
    ]
  in
  let scope = device_ids (List.map fst layout) in
  let d =
    deploy channel tb.vlan_net ~attach_to:tb.swb ~stations:[ (nm_station_id, scope) ] layout
  in
  let nm = List.hd (bring_up d) in
  {
    vtb = tb;
    vchan = d.chan;
    vfaults = d.faults;
    vtransport = d.transport;
    vadmission = d.admission;
    vnm = nm;
    vscope = scope;
    vagents = List.map (fun (dev, a) -> (dev.Device.dev_name, a)) d.agents;
  }

let vlan_reachable v = Testbeds.vlan_reachable v.vtb

(* n-switch generalisation of the VLAN scenario. *)
type vlan_chain = {
  vctb : Testbeds.vlan_chain;
  vcchan : Mgmt.Channel.t;
  vcfaults : Mgmt.Faults.t;
  vctransport : Mgmt.Reliable.t;
  vcadmission : Mgmt.Admission.t;
  vcnm : Nm.t;
  vcscope : string list;
}

let build_vlan_chain n =
  let tb = Testbeds.vlan_chain n in
  let layout =
    List.mapi
      (fun idx sw ->
        let id = string_of_int (idx + 1) in
        (sw, [ switch_eth ("eth" ^ id) sw; Vlan ("vl" ^ id) ]))
      (Array.to_list tb.switches)
  in
  let scope = device_ids (List.map fst layout) in
  let d =
    deploy `Oob tb.vc_net ~attach_to:tb.switches.(0) ~stations:[ (nm_station_id, scope) ] layout
  in
  let nm = List.hd (bring_up d) in
  {
    vctb = tb;
    vcchan = d.chan;
    vcfaults = d.faults;
    vctransport = d.transport;
    vcadmission = d.admission;
    vcnm = nm;
    vcscope = scope;
  }

let vlan_chain_reachable v = Testbeds.vlan_chain_reachable v.vctb

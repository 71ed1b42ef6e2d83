(** Ready-made CONMan deployments of the paper's experimental set-ups:
    netsim testbed + management channel + agents + protocol modules + NM,
    already discovered (Hello + showPotential) and primed with the NM's
    address-domain knowledge. *)

val nm_station_id : string
(** Device id the (primary) NM subscribes under. *)

val standby_station_id : string
(** Device id of the warm-standby NM in HA deployments (see {!Ha}). *)

type channel_kind = [ `Oob | `Raw ]
(** Pre-configured out-of-band channel, or the 4D-style raw in-band
    flooding channel (§III-A). *)

(** {1 Deployments}

    Every builder below declares its testbed's module layout as data,
    {!deploy}s it and brings its NM up with {!bring_up}. *)

type layout
(** Per managed device, the protocol modules its agent exposes. *)

val chain_layout : Netsim.Testbeds.chain -> layout
(** The module layout of {!build_chain}: the figure-4 edge routers at both
    ends of the chain, an IP + MPLS core router in between. *)

val chain_goal : Netsim.Testbeds.chain -> Path_finder.goal
(** {!build_chain}'s goal: connect S1 and S2 of customer C1 across every
    router of the chain. *)

type deployment = {
  net : Netsim.Net.t;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  stations : (string * string list) list;  (** NM station id -> its scope (device ids) *)
  layout : layout;
  agents : (Netsim.Device.t * Agent.t) list;  (** agents of in-scope devices, layout order *)
  ip_handles : (string * Ip_module.handle) list;  (** IP module id -> handle *)
}

val deploy :
  ?fault_seed:int ->
  channel_kind ->
  Netsim.Net.t ->
  attach_to:Netsim.Device.t ->
  stations:(string * string list) list ->
  layout ->
  deployment
(** Builds the management-channel stack (base channel, fault injection
    seeded by [fault_seed], default 42, reliable delivery, overload
    admission), then one agent per layout entry, homed to the station
    whose scope holds the device, with the entry's modules registered in
    order. For [`Raw] a management-station device is created and cabled to
    [attach_to]. A device in no station's scope still gets an agent (homed
    to the first station) but is left out of [agents] and never
    announced. *)

val bring_up : deployment -> Nm.t list
(** Creates one NM per station, in order, then runs discovery: every
    in-scope agent announces, each NM harvests the potentials of its scope
    and learns the address domains of its scope's IP modules (derived from
    the layout) plus the customer prefix map. *)

(** {1 Figure 4: the VPN testbed} *)

type vpn = {
  tb : Netsim.Testbeds.vpn;
  chan : Mgmt.Channel.t;
  faults : Mgmt.Faults.t; (** fault-injection handle for the channel *)
  transport : Mgmt.Reliable.t; (** reliable-delivery handle under [chan] *)
  admission : Mgmt.Admission.t; (** overload-admission handle atop [transport] *)
  nm : Nm.t;
  goal : Path_finder.goal; (** "connect S1 and S2 of customer C1" *)
  scope : string list;
  agents : (string * Agent.t) list; (** device name -> agent *)
  ip_handles : (string * Ip_module.handle) list; (** module id -> handle *)
}

val build_vpn :
  ?channel:channel_kind ->
  ?secure:bool ->
  ?tradeoffs:string list ->
  ?fault_seed:int ->
  unit ->
  vpn
(** [channel] defaults to [`Oob]; only then do the customer hosts get
    (never announced) agents too. [secure:true] additionally registers the
    figure-1 IPsec pair on the edge routers: ESP data modules whose
    "esp-keys" dependency is satisfied by IKE control modules (§II-F).
    [tradeoffs] overrides the goal's default
    ["in-order-delivery"; "low-error-rate"]. [fault_seed] (default 42)
    seeds the fault-injection layer — a no-op until knobs on [faults] are
    turned. *)

val vpn_goal : ?tradeoffs:string list -> unit -> Path_finder.goal

val vpn_reachable : vpn -> bool
(** Bidirectional ICMP reachability between the customer hosts. *)

val vpn_adopt : vpn -> Nm.t -> unit
(** Points a replacement NM (e.g. one created from a saved
    {!Intent.journal}) at the same deployment: re-announces every agent,
    harvests potentials and re-enters the domain knowledge derived from
    the figure-4 layout, as {!build_vpn} does. Follow with {!Nm.recover} to re-converge the journalled intents. *)

(** {1 n-router chains (the Table-VI sweep)} *)

type chain = {
  ctb : Netsim.Testbeds.chain;
  cchan : Mgmt.Channel.t;
  cfaults : Mgmt.Faults.t;
  ctransport : Mgmt.Reliable.t;
  cadmission : Mgmt.Admission.t;
  cnm : Nm.t;
  cgoal : Path_finder.goal;
  cscope : string list;
}

val build_chain : ?addressed:bool -> int -> chain
(** [build_chain n] deploys {!chain_layout} over [Netsim.Testbeds.chain n]
    on the out-of-band channel. [addressed:false] leaves the ISP
    routers without addresses: the NM is expected to assign them via
    {!Nm.assign_address}. *)

val chain_reachable : chain -> bool

(** {1 Diamond: two parallel cores (multi-route experiments)} *)

type diamond = {
  dtb : Netsim.Testbeds.diamond;
  dchan : Mgmt.Channel.t;
  dfaults : Mgmt.Faults.t;
  dtransport : Mgmt.Reliable.t;
  dadmission : Mgmt.Admission.t;
  dnm : Nm.t;
  dgoal : Path_finder.goal;
  dscope : string list;
  dagents : (string * Agent.t) list; (** device id -> agent *)
}

val build_diamond : ?fault_seed:int -> unit -> diamond
(** Out-of-band channel; [fault_seed] as for {!build_vpn}. *)

val diamond_reachable : diamond -> bool

val diamond_adopt : diamond -> Nm.t -> unit
(** Like {!vpn_adopt}, for the diamond deployment. *)

(** {1 Path classification helpers} *)

val pure_gre : Path_finder.path -> bool
val pure_mpls : Path_finder.path -> bool
val pure_ipip : Path_finder.path -> bool
val secure : Path_finder.path -> bool

(** {1 Figure 9: VLAN switch chains} *)

type vlan = {
  vtb : Netsim.Testbeds.vlan;
  vchan : Mgmt.Channel.t;
  vfaults : Mgmt.Faults.t;
  vtransport : Mgmt.Reliable.t;
  vadmission : Mgmt.Admission.t;
  vnm : Nm.t;
  vscope : string list;
  vagents : (string * Agent.t) list;
}

val build_vlan : ?channel:channel_kind -> unit -> vlan
(** [channel] defaults to [`Oob]. Switches carry no address domains. *)

val vlan_reachable : vlan -> bool

type vlan_chain = {
  vctb : Netsim.Testbeds.vlan_chain;
  vcchan : Mgmt.Channel.t;
  vcfaults : Mgmt.Faults.t;
  vctransport : Mgmt.Reliable.t;
  vcadmission : Mgmt.Admission.t;
  vcnm : Nm.t;
  vcscope : string list;
}

val build_vlan_chain : int -> vlan_chain
(** [build_vlan_chain n]: [n] switches on the out-of-band channel. *)

val vlan_chain_reachable : vlan_chain -> bool

(* Integration tests for the simulated data plane: Ethernet switching with
   VLAN/QinQ, ARP, IP forwarding with policy routing, GRE/IP-IP tunnels and
   MPLS label switching. These exercise exactly the low-level machinery the
   CONMan modules configure. *)

open Packet
open Netsim

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int

let ip = Ipv4_addr.of_string
let pfx = Prefix.of_string

let route ?via ?dev ?mpls dst =
  { Device.rt_dst = pfx dst; rt_via = via; rt_dev = dev; rt_mpls = mpls }

(* A host with a single port and address. *)
let host net ~name ~addr ~prefix =
  let d = Net.add_device net ~id:("id-" ^ name) ~name in
  let _ = Device.add_port d in
  Device.add_addr d ~iface:"eth0" ~addr:(ip addr) ~prefix:(pfx prefix);
  d

let router net ~name n_ports =
  let d = Net.add_device net ~id:("id-" ^ name) ~name in
  for _ = 1 to n_ports do
    ignore (Device.add_port d)
  done;
  d.Device.ip_forward <- true;
  d

let ping net ~from ~src ~dst = Ping.reachable net ~from ~src:(ip src) ~dst:(ip dst) ()

(* --- basic connectivity ------------------------------------------------- *)

let test_cable_ping () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let _ = Net.connect net (h1, 0) (h2, 0) in
  check tbool "h1 -> h2" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  check tbool "h2 -> h1" true (ping net ~from:h2 ~src:"10.0.0.2" ~dst:"10.0.0.1")

let test_switch_ping_and_learning () =
  let net = Net.create () in
  let sw = Net.add_device net ~switching:true ~id:"id-sw" ~name:"sw" in
  for _ = 1 to 3 do
    ignore (Device.add_port sw)
  done;
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let h3 = host net ~name:"h3" ~addr:"10.0.0.3" ~prefix:"10.0.0.0/24" in
  let _ = Net.connect net (h1, 0) (sw, 0) in
  let _ = Net.connect net (h2, 0) (sw, 1) in
  let _ = Net.connect net (h3, 0) (sw, 2) in
  check tbool "h1 -> h2 through switch" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  (* After learning, further unicast traffic must not reach h3's port. *)
  let to_h3_before = Counters.get (Device.port sw 2).Device.port_counters "tx_frames" in
  check tbool "again" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  let to_h3_after = Counters.get (Device.port sw 2).Device.port_counters "tx_frames" in
  check tint "no flood to h3 once learned" to_h3_before to_h3_after

let test_router_forwarding () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  check tbool "cross subnet" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2")

let test_forwarding_disabled () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  r.Device.ip_forward <- false;
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  check tbool "dropped" false (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  check tbool "counted" true (Counters.get r.Device.dev_counters "ip_not_forwarding_drop" > 0)

let test_link_cut_and_restore () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let seg = Net.connect net (h1, 0) (h2, 0) in
  check tbool "up" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  Link.cut seg;
  check tbool "cut" false (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2");
  Link.restore seg;
  check tbool "restored" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2")

let test_ttl_expiry () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r = router net ~name:"r" 2 in
  Device.add_addr r ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r, 0) in
  let _ = Net.connect net (h2, 0) (r, 1) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  let hdr =
    Ipv4.make ~ttl:1 ~proto:Ip_proto.Icmp ~src:(ip "10.0.1.2") ~dst:(ip "10.0.2.2") ()
  in
  Datapath.ip_send h1 hdr (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1 }) Bytes.empty);
  let _ = Net.run net in
  check tbool "ttl drop counted" true (Counters.get r.Device.dev_counters "ttl_exceeded" > 0)

(* --- policy routing ------------------------------------------------------ *)

let test_policy_routing () =
  (* Two parallel paths from r0 to h2's subnet; a policy rule steers a
     specific prefix through the upper router while main routes downward. *)
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r0 = router net ~name:"r0" 3 in
  let up = router net ~name:"up" 2 in
  let down = router net ~name:"down" 2 in
  Device.add_addr r0 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r0 ~iface:"eth1" ~addr:(ip "192.168.1.1") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr r0 ~iface:"eth2" ~addr:(ip "192.168.2.1") ~prefix:(pfx "192.168.2.0/30");
  Device.add_addr up ~iface:"eth0" ~addr:(ip "192.168.1.2") ~prefix:(pfx "192.168.1.0/30");
  Device.add_addr up ~iface:"eth1" ~addr:(ip "10.0.2.3") ~prefix:(pfx "10.0.2.0/24");
  Device.add_addr down ~iface:"eth0" ~addr:(ip "192.168.2.2") ~prefix:(pfx "192.168.2.0/30");
  Device.add_addr down ~iface:"eth1" ~addr:(ip "10.0.2.4") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r0, 0) in
  let _ = Net.connect net (r0, 1) (up, 0) in
  let _ = Net.connect net (r0, 2) (down, 0) in
  let _ = Net.lan net ~name:"dstlan" [ (h2, 0); (up, 1); (down, 1) ] in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.3") "0.0.0.0/0");
  Device.add_route up (route ~via:(ip "192.168.1.1") "10.0.1.0/24");
  Device.add_route down (route ~via:(ip "192.168.2.1") "10.0.1.0/24");
  (* main: everything via down *)
  Device.add_route r0 (route ~via:(ip "192.168.2.2") "10.0.2.0/24");
  (* policy: 10.0.2.2/32 via up *)
  Device.register_table r0 "special";
  Device.add_route r0 ~table:"special" (route ~via:(ip "192.168.1.2") "0.0.0.0/0");
  Device.add_rule r0
    { Device.rl_sel = Device.To_prefix (pfx "10.0.2.2/32"); rl_table = "special"; rl_prio = 10 };
  check tbool "reachable" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  (* The policy path must have carried the traffic. *)
  check tbool "via up" true (Counters.get up.Device.dev_counters "ip_forwarded" > 0);
  check tint "not via down" 0 (Counters.get down.Device.dev_counters "ip_forwarded")

(* --- tunnels ------------------------------------------------------------- *)

(* Emulates the paper's A--B--C chain: GRE tunnel between edge routers r1 and
   r3 across core router r2, carrying customer traffic h1 <-> h2. *)
let gre_testbed ?(ikey = Some 1001l) ?(okey = Some 2001l) ?(mismatch = false) () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r1 = router net ~name:"r1" 2 in
  let r2 = router net ~name:"r2" 2 in
  let r3 = router net ~name:"r3" 2 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r1 ~iface:"eth1" ~addr:(ip "204.9.168.1") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "204.9.168.2") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth1" ~addr:(ip "204.9.169.2") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth0" ~addr:(ip "204.9.169.1") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r1, 0) in
  let _ = Net.connect net (r1, 1) (r2, 0) in
  let _ = Net.connect net (r2, 1) (r3, 0) in
  let _ = Net.connect net (r3, 1) (h2, 0) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  (* outer routing between tunnel endpoints *)
  Device.add_route r1 (route ~via:(ip "204.9.168.2") "204.9.169.0/30");
  Device.add_route r3 (route ~via:(ip "204.9.169.2") "204.9.168.0/30");
  (* the tunnels *)
  let t1 =
    Device.add_tunnel r1 ~name:"greA" ~mode:Device.Gre_mode ~local:(ip "204.9.168.1")
      ~remote:(ip "204.9.169.1") ()
  in
  let t3 =
    Device.add_tunnel r3 ~name:"greC" ~mode:Device.Gre_mode ~local:(ip "204.9.169.1")
      ~remote:(ip "204.9.168.1") ()
  in
  (match (t1.Device.if_kind, t3.Device.if_kind) with
  | Device.Tun a, Device.Tun b ->
      a.Device.t_ikey <- ikey;
      a.Device.t_okey <- okey;
      b.Device.t_ikey <- (if mismatch then Some 9999l else okey);
      b.Device.t_okey <- ikey;
      a.Device.t_oseq <- true;
      b.Device.t_iseq <- true;
      a.Device.t_ocsum <- true;
      b.Device.t_icsum <- true
  | _ -> assert false);
  t1.Device.if_up <- true;
  t3.Device.if_up <- true;
  Device.add_route r1 (route ~dev:"greA" "10.0.2.0/24");
  Device.add_route r3 (route ~dev:"greC" "10.0.1.0/24");
  (net, h1, h2, r1, r2, r3)

let test_gre_tunnel () =
  let net, h1, _h2, _r1, r2, _r3 = gre_testbed () in
  check tbool "through tunnel" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  (* the core router must have seen only the outer header (it has no route
     for customer space, so success proves encapsulation) *)
  check tbool "core forwarded" true (Counters.get r2.Device.dev_counters "ip_forwarded" > 0)

let test_gre_key_mismatch () =
  let net, h1, _, _, _, r3 = gre_testbed ~mismatch:true () in
  check tbool "dropped on key mismatch" false (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  check tbool "drop counted" true (Counters.get r3.Device.dev_counters "gre_check_drop" > 0)

let test_gre_sequence_replay () =
  let net, h1, _, _r1, _, r3 = gre_testbed () in
  check tbool "first ok" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  (* Pretend the receiver has already seen a much later sequence number:
     subsequent (replayed/reordered) packets must be dropped. *)
  (match (Device.find_iface_exn r3 "greC").Device.if_kind with
  | Device.Tun t -> t.Device.t_rx_seq <- Some 1000l
  | _ -> assert false);
  check tbool "stale seq dropped" false (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2")

let test_gre_counters_report () =
  let net, h1, _, r1, _, _ = gre_testbed () in
  check tbool "ping" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  let greA = Device.find_iface_exn r1 "greA" in
  check tbool "tx counted" true (Counters.get greA.Device.if_counters "tx_packets" > 0);
  check tbool "rx counted" true (Counters.get greA.Device.if_counters "rx_packets" > 0)

let test_ipip_tunnel () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r1 = router net ~name:"r1" 2 in
  let r2 = router net ~name:"r2" 2 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r1 ~iface:"eth1" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "192.168.0.2") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr r2 ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r1, 0) in
  let _ = Net.connect net (r1, 1) (r2, 0) in
  let _ = Net.connect net (r2, 1) (h2, 0) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  let t1 =
    Device.add_tunnel r1 ~name:"tun0" ~mode:Device.Ipip_mode ~local:(ip "192.168.0.1")
      ~remote:(ip "192.168.0.2") ()
  in
  let t2 =
    Device.add_tunnel r2 ~name:"tun0" ~mode:Device.Ipip_mode ~local:(ip "192.168.0.2")
      ~remote:(ip "192.168.0.1") ()
  in
  t1.Device.if_up <- true;
  t2.Device.if_up <- true;
  Device.add_route r1 (route ~dev:"tun0" "10.0.2.0/24");
  Device.add_route r2 (route ~dev:"tun0" "10.0.1.0/24");
  check tbool "ipip" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2")

(* --- MPLS ---------------------------------------------------------------- *)

let test_mpls_lsp () =
  let net = Net.create () in
  let h1 = host net ~name:"h1" ~addr:"10.0.1.2" ~prefix:"10.0.1.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.2.2" ~prefix:"10.0.2.0/24" in
  let r1 = router net ~name:"r1" 2 in
  let r2 = router net ~name:"r2" 2 in
  let r3 = router net ~name:"r3" 2 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "10.0.1.1") ~prefix:(pfx "10.0.1.0/24");
  Device.add_addr r1 ~iface:"eth1" ~addr:(ip "204.9.168.1") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "204.9.168.2") ~prefix:(pfx "204.9.168.0/30");
  Device.add_addr r2 ~iface:"eth1" ~addr:(ip "204.9.169.2") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth0" ~addr:(ip "204.9.169.1") ~prefix:(pfx "204.9.169.0/30");
  Device.add_addr r3 ~iface:"eth1" ~addr:(ip "10.0.2.1") ~prefix:(pfx "10.0.2.0/24");
  let _ = Net.connect net (h1, 0) (r1, 0) in
  let _ = Net.connect net (r1, 1) (r2, 0) in
  let _ = Net.connect net (r2, 1) (r3, 0) in
  let _ = Net.connect net (r3, 1) (h2, 0) in
  Device.add_route h1 (route ~via:(ip "10.0.1.1") "0.0.0.0/0");
  Device.add_route h2 (route ~via:(ip "10.0.2.1") "0.0.0.0/0");
  List.iter (fun r -> r.Device.mpls.Device.mpls_enabled <- true) [ r1; r2; r3 ];
  (* forward LSP h1 -> h2: r1 pushes 2001, r2 swaps to 3001, r3 pops+delivers *)
  let nh_fwd =
    Device.mpls_add_nhlfe r1 ~push:[ 2001 ] ~dev_out:"eth1" ~via:(ip "204.9.168.2") ()
  in
  Device.add_route r1 (route ~mpls:nh_fwd.Device.nh_key "10.0.2.0/24");
  Device.mpls_set_labelspace r2 ~iface:"eth0" ~space:0;
  let _ = Device.mpls_add_ilm r2 ~label:2001 ~space:0 in
  let nh_swap =
    Device.mpls_add_nhlfe r2 ~push:[ 3001 ] ~dev_out:"eth1" ~via:(ip "204.9.169.1") ()
  in
  Device.mpls_xc r2 ~label:2001 ~space:0 ~nhlfe_key:nh_swap.Device.nh_key;
  Device.mpls_set_labelspace r3 ~iface:"eth0" ~space:0;
  let _ = Device.mpls_add_ilm r3 ~label:3001 ~space:0 in
  let nh_pop = Device.mpls_add_nhlfe r3 ~push:[] ~dev_out:"local" ~via:Ipv4_addr.any () in
  Device.mpls_xc r3 ~label:3001 ~space:0 ~nhlfe_key:nh_pop.Device.nh_key;
  (* reverse LSP h2 -> h1 *)
  let nh_rev =
    Device.mpls_add_nhlfe r3 ~push:[ 10002 ] ~dev_out:"eth0" ~via:(ip "204.9.169.2") ()
  in
  Device.add_route r3 (route ~mpls:nh_rev.Device.nh_key "10.0.1.0/24");
  Device.mpls_set_labelspace r2 ~iface:"eth1" ~space:0;
  let _ = Device.mpls_add_ilm r2 ~label:10002 ~space:0 in
  let nh_swap_rev =
    Device.mpls_add_nhlfe r2 ~push:[ 10001 ] ~dev_out:"eth0" ~via:(ip "204.9.168.1") ()
  in
  Device.mpls_xc r2 ~label:10002 ~space:0 ~nhlfe_key:nh_swap_rev.Device.nh_key;
  Device.mpls_set_labelspace r1 ~iface:"eth1" ~space:0;
  let _ = Device.mpls_add_ilm r1 ~label:10001 ~space:0 in
  let nh_pop_rev = Device.mpls_add_nhlfe r1 ~push:[] ~dev_out:"local" ~via:Ipv4_addr.any () in
  Device.mpls_xc r1 ~label:10001 ~space:0 ~nhlfe_key:nh_pop_rev.Device.nh_key;
  check tbool "over LSP" true (ping net ~from:h1 ~src:"10.0.1.2" ~dst:"10.0.2.2");
  check tbool "labels switched at core" true
    (Counters.get r2.Device.dev_counters "ip_forwarded" = 0)

let test_mpls_no_ilm_drops () =
  let net = Net.create () in
  let r1 = router net ~name:"r1" 1 in
  let r2 = router net ~name:"r2" 1 in
  Device.add_addr r1 ~iface:"eth0" ~addr:(ip "192.168.0.1") ~prefix:(pfx "192.168.0.0/30");
  Device.add_addr r2 ~iface:"eth0" ~addr:(ip "192.168.0.2") ~prefix:(pfx "192.168.0.0/30");
  let _ = Net.connect net (r1, 0) (r2, 0) in
  List.iter (fun r -> r.Device.mpls.Device.mpls_enabled <- true) [ r1; r2 ];
  Device.mpls_set_labelspace r2 ~iface:"eth0" ~space:0;
  let nh = Device.mpls_add_nhlfe r1 ~push:[ 777 ] ~dev_out:"eth0" ~via:(ip "192.168.0.2") () in
  Device.add_route r1 (route ~mpls:nh.Device.nh_key "10.9.9.0/24");
  let hdr = Ipv4.make ~proto:Ip_proto.Icmp ~src:(ip "192.168.0.1") ~dst:(ip "10.9.9.1") () in
  Datapath.ip_send r1 hdr (Icmp.encode (Icmp.Echo_request { id = 1; seq = 1 }) Bytes.empty);
  let _ = Net.run net in
  check tbool "unknown label dropped" true
    (Counters.get r2.Device.dev_counters "mpls_no_ilm_drop" > 0)

(* --- VLANs ---------------------------------------------------------------- *)

let qinq_testbed () =
  let net = Net.create () in
  let mk_switch name =
    let d = Net.add_device net ~switching:true ~id:("id-" ^ name) ~name in
    for _ = 1 to 2 do
      ignore (Device.add_port d)
    done;
    d
  in
  let swa = mk_switch "swa" and swb = mk_switch "swb" and swc = mk_switch "swc" in
  let h1 = host net ~name:"h1" ~addr:"10.0.0.1" ~prefix:"10.0.0.0/24" in
  let h2 = host net ~name:"h2" ~addr:"10.0.0.2" ~prefix:"10.0.0.0/24" in
  let _ = Net.connect net (h1, 0) (swa, 0) in
  let _ = Net.connect net ~mtu:1526 (swa, 1) (swb, 0) in
  let _ = Net.connect net ~mtu:1526 (swb, 1) (swc, 0) in
  let _ = Net.connect net (h2, 0) (swc, 1) in
  (net, swa, swb, swc, h1, h2)

let config_qinq ?(mtu = 1504) swa swb swc =
  (Device.port swa 0).Device.port_mode <- Device.Dot1q_tunnel 22;
  (Device.port swa 1).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swb 0).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swb 1).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swc 0).Device.port_mode <- Device.Dot1q_tunnel 22;
  (Device.port swc 1).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  List.iter (fun sw -> (Device.vlan_def sw 22).Device.vd_mtu <- mtu) [ swa; swb; swc ]

(* Wires are crossed on purpose in config_qinq: on swc, port 0 faces swb.
   Correct it here. *)
let config_qinq_fixed ?mtu swa swb swc =
  config_qinq ?mtu swa swb swc;
  (Device.port swc 0).Device.port_mode <- Device.Trunk { allowed = [ 22 ]; native = None };
  (Device.port swc 1).Device.port_mode <- Device.Dot1q_tunnel 22

let test_vlan_tunnel () =
  let net, swa, swb, swc, h1, _h2 = qinq_testbed () in
  config_qinq_fixed swa swb swc;
  check tbool "through QinQ" true (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2")

let test_vlan_isolation () =
  let net, swa, swb, swc, h1, h2 = qinq_testbed () in
  config_qinq_fixed swa swb swc;
  (* Move h2's attachment into a different customer VLAN: no leakage. *)
  (Device.port swc 1).Device.port_mode <- Device.Dot1q_tunnel 23;
  ignore h2;
  check tbool "isolated" false (ping net ~from:h1 ~src:"10.0.0.1" ~dst:"10.0.0.2")

let test_vlan_mtu () =
  let net, swa, swb, swc, h1, _h2 = qinq_testbed () in
  (* Default 1500-byte VLAN MTU: a full-size tagged customer frame no longer
     fits once the outer tag is pushed (the paper's "ensure MTU is set
     properly" comment). *)
  config_qinq_fixed ~mtu:1500 swa swb swc;
  let big = Bytes.make 1472 'x' in
  (* 1472 payload + 8 icmp + 20 ip = 1500-byte ethernet payload: still fits
     with one tag (<= mtu + 4). *)
  check tbool "exactly fits" true
    (Ping.reachable ~payload:big net ~from:h1 ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2") ())

(* Core link i is 204.9.(100+i).0/30, so 157 addressed routers is the
   largest chain; one more must be refused by name, not by the address
   parser. *)
let test_chain_size_ceiling () =
  let tb = Testbeds.chain 157 in
  check tint "157 routers" 157 (Array.length tb.Testbeds.routers);
  match Testbeds.chain 158 with
  | _ -> Alcotest.fail "a 158-router chain must be refused"
  | exception Invalid_argument msg ->
      check Alcotest.string "names the limit"
        "Testbeds.chain: at most 157 addressed routers (core links are 204.9.(100+i).0/30)" msg

let () =
  Alcotest.run "netsim"
    [
      ( "ethernet",
        [
          Alcotest.test_case "ping over cable" `Quick test_cable_ping;
          Alcotest.test_case "switch + learning" `Quick test_switch_ping_and_learning;
          Alcotest.test_case "link cut/restore" `Quick test_link_cut_and_restore;
        ] );
      ( "ip",
        [
          Alcotest.test_case "router forwarding" `Quick test_router_forwarding;
          Alcotest.test_case "forwarding disabled" `Quick test_forwarding_disabled;
          Alcotest.test_case "ttl expiry" `Quick test_ttl_expiry;
          Alcotest.test_case "policy routing" `Quick test_policy_routing;
        ] );
      ( "tunnels",
        [
          Alcotest.test_case "gre end to end" `Quick test_gre_tunnel;
          Alcotest.test_case "gre key mismatch" `Quick test_gre_key_mismatch;
          Alcotest.test_case "gre stale sequence" `Quick test_gre_sequence_replay;
          Alcotest.test_case "gre counters" `Quick test_gre_counters_report;
          Alcotest.test_case "ipip end to end" `Quick test_ipip_tunnel;
        ] );
      ( "mpls",
        [
          Alcotest.test_case "three-router LSP" `Quick test_mpls_lsp;
          Alcotest.test_case "unknown label drops" `Quick test_mpls_no_ilm_drops;
        ] );
      ( "vlan",
        [
          Alcotest.test_case "qinq tunnel" `Quick test_vlan_tunnel;
          Alcotest.test_case "vlan isolation" `Quick test_vlan_isolation;
          Alcotest.test_case "vlan mtu" `Quick test_vlan_mtu;
        ] );
      ("testbeds", [ Alcotest.test_case "chain size ceiling" `Quick test_chain_size_ceiling ]);
    ]

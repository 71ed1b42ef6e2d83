(* Quickstart: bring up the paper's figure-4 VPN testbed, let the NM
   discover it over the management channel, achieve a high-level
   connectivity goal, and verify the customer sites can reach each other.

   Run with: dune exec examples/quickstart.exe *)

open Conman

let () =
  Fmt.pr "== CONMan quickstart ==@.@.";

  (* 1. Build the network: three ISP routers (A, B, C), two customer sites,
     management agents with ETH/IP/GRE/MPLS modules on every managed
     device, and a Network Manager on the management channel. During the
     build every device announces its physical connectivity and answers
     showPotential, so the NM already holds the network map. *)
  let v = Scenarios.build_vpn () in
  Fmt.pr "Before configuration, the customer sites cannot reach each other: %b@.@."
    (Scenarios.vpn_reachable v);

  (* 2. The human manager's high-level goal (§III-C):
     "Configure connectivity between sites S1 and S2 of customer C1".
     In CONMan terms: connect the customer-facing interfaces <ETH,A,a> and
     <ETH,C,f> for traffic between C1-S1 and C1-S2. *)
  let goal = v.Scenarios.goal in
  Fmt.pr "Goal: connect %a and %a for traffic between %s and %s@.@." Ids.pp
    goal.Path_finder.g_from Ids.pp goal.Path_finder.g_to goal.Path_finder.g_src_domain
    goal.Path_finder.g_dst_domain;

  (* 3. List the options, then let the NM choose one and configure it. *)
  let paths = Nm.find_paths v.Scenarios.nm goal in
  match Nm.achieve v.Scenarios.nm goal with
  | Error e -> Fmt.epr "failed: %s@." e
  | Ok (_, chosen, script) ->
      Fmt.pr "The NM found %d possible module-level paths:@." (List.length paths);
      List.iter (fun p -> Fmt.pr "  %a@." Path_finder.pp p) paths;
      Fmt.pr "@.It chose (fewest pipes, best forwarding): %a@.@." Path_finder.pp chosen;
      Fmt.pr "CONMan script executed at router A:@.";
      Script_gen.pp_device_script Fmt.stdout
        (List.assoc "id-A" script.Script_gen.per_device);

      (* 4. Verify over the data plane. *)
      Fmt.pr "@.S1 <-> S2 reachable after configuration: %b@." (Scenarios.vpn_reachable v);

      (* 5. Peek at what actually happened on the devices. *)
      (match Nm.show_actual v.Scenarios.nm "id-A" with
      | Some state ->
          Fmt.pr "@.showActual at router A:@.";
          List.iter
            (fun (m, kvs) ->
              List.iter (fun (k, value) -> Fmt.pr "  %a %s = %s@." Ids.pp m k value) kvs)
            state
      | None -> ())

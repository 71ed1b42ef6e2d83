(* Dedicated path-finder tests: enumeration on chains of varying length,
   the domain-pruning ablation, encapsulation-balance invariants, goal
   error cases, the branch-and-bound planner against the enumerator, and a
   property test that configures randomly chosen paths end to end. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

(* --- invariants over enumerated paths --------------------------------------- *)

(* A path must be encapsulation-balanced: every pushed header is popped by a
   module of the same protocol, in LIFO order, with the base headers
   restored at the end. *)
let balanced (p : Path_finder.path) =
  let ok = ref true in
  let stack = ref [] in
  let eth_missing = ref false in
  List.iter
    (fun (v : Path_finder.visit) ->
      match v.Path_finder.v_action with
      | Path_finder.Push ->
          if v.Path_finder.v_chain = Path_finder.base_eth then
            (* restoring the customer frame: only valid at the very end *)
            eth_missing := false
          else stack := v.Path_finder.v_chain :: !stack
      | Path_finder.Pop -> (
          if v.Path_finder.v_chain = Path_finder.base_eth then eth_missing := true
          else
            match !stack with
            | top :: rest when top = v.Path_finder.v_chain -> stack := rest
            | _ -> ok := false)
      | Path_finder.Inspect -> ())
    p.Path_finder.visits;
  !ok && !stack = [] && not !eth_missing

let all_paths v = Nm.find_paths v.Scenarios.nm v.Scenarios.goal

let test_all_paths_balanced () =
  let v = Scenarios.build_vpn () in
  List.iter
    (fun p -> check tbool ("balanced: " ^ Path_finder.signature p) true (balanced p))
    (all_paths v)

let test_paths_start_and_end_at_goal () =
  let v = Scenarios.build_vpn () in
  List.iter
    (fun (p : Path_finder.path) ->
      let first = List.hd p.Path_finder.visits and last = List.hd (List.rev p.Path_finder.visits) in
      check tbool "starts at a" true (Ids.equal first.Path_finder.v_mod v.Scenarios.goal.Path_finder.g_from);
      check tbool "ends at f" true (Ids.equal last.Path_finder.v_mod v.Scenarios.goal.Path_finder.g_to))
    (all_paths v)

let test_no_module_revisits () =
  let v = Scenarios.build_vpn () in
  List.iter
    (fun (p : Path_finder.path) ->
      let mods = List.map (fun v -> v.Path_finder.v_mod) p.Path_finder.visits in
      check tint "no revisits" (List.length mods) (List.length (List.sort_uniq compare mods)))
    (all_paths v)

(* --- chains of varying length ------------------------------------------------- *)

let test_chain_path_counts () =
  (* path counts grow with the number of MPLS-capable segments; the n=3
     chain reproduces the paper's figure-4 testbed exactly *)
  let count n =
    let c = Scenarios.build_chain n in
    List.length (Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)
  in
  check tint "n=2" 6 (count 2);
  check tint "n=3 (the paper's 9)" 9 (count 3);
  check tbool "monotone growth" true (count 4 > 9 && count 5 > count 4)

let test_chain_pure_paths_exist () =
  List.iter
    (fun n ->
      let c = Scenarios.build_chain n in
      let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
      check tbool "pure gre exists" true (List.exists Scenarios.pure_gre paths);
      check tbool "pure mpls exists" true (List.exists Scenarios.pure_mpls paths);
      check tbool "pure ipip exists" true (List.exists Scenarios.pure_ipip paths))
    [ 2; 4; 6 ]

(* --- ablation: domain pruning ---------------------------------------------------- *)

let test_domain_pruning_ablation () =
  let v = Scenarios.build_vpn () in
  let topo = Nm.topology v.Scenarios.nm in
  let pruned = Path_finder.find topo v.Scenarios.goal in
  let unpruned = Path_finder.find ~prune_domains:false topo v.Scenarios.goal in
  check tint "pruned = 9" 9 (List.length pruned);
  check tbool "pruning removes invalid paths" true
    (List.length unpruned > List.length pruned);
  (* every pruned path is also found without pruning (pruning only removes) *)
  let sigs = List.map Path_finder.signature unpruned in
  List.iter
    (fun p -> check tbool "subset" true (List.mem (Path_finder.signature p) sigs))
    pruned

(* --- diamond: alternate routes + the hierarchical traversal ------------------------ *)

let test_diamond_full_vs_hierarchical () =
  let d = Scenarios.build_diamond () in
  let topo = Nm.topology d.Scenarios.dnm in
  let full = Path_finder.find topo d.Scenarios.dgoal in
  let hier = Path_finder.find_hierarchical topo d.Scenarios.dgoal in
  (* two parallel cores double the options; the hierarchical two-step
     traversal (the paper's scalability fix) commits to one device walk *)
  check tint "full search finds both cores" 18 (List.length full);
  check tint "hierarchical restricts to one walk" 9 (List.length hier);
  let fsigs = List.map Path_finder.signature full in
  List.iter
    (fun p -> check tbool "hierarchical subset of full" true (List.mem (Path_finder.signature p) fsigs))
    hier

let test_diamond_both_cores_work () =
  (* configure one path through each core; both must carry traffic *)
  List.iter
    (fun core_mpls ->
      let d = Scenarios.build_diamond () in
      let paths = Nm.find_paths d.Scenarios.dnm d.Scenarios.dgoal in
      let p =
        List.find
          (fun p ->
            Scenarios.pure_mpls p
            && List.exists (fun v -> Ids.short v.Path_finder.v_mod = core_mpls) p.Path_finder.visits)
          paths
      in
      let _ = Nm.configure_path d.Scenarios.dnm d.Scenarios.dgoal p in
      check tbool ("via " ^ core_mpls) true
        (Nm.errors d.Scenarios.dnm = [] && Scenarios.diamond_reachable d))
    [ "p1"; "p2" ]

(* --- goal error cases ------------------------------------------------------------- *)

let test_no_path_outside_scope () =
  let v = Scenarios.build_vpn () in
  let goal = { v.Scenarios.goal with Path_finder.g_scope = [ "id-A" ] } in
  check tbool "no path without the core in scope" true (Nm.find_paths v.Scenarios.nm goal = []);
  match Nm.achieve ~configure:false v.Scenarios.nm goal with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "achieve must fail"

let test_no_path_without_domains () =
  (* if the NM lacks domain knowledge for the IP modules, no path can place
     them (the paper's point that the NM owns address assignment) *)
  let v = Scenarios.build_vpn () in
  Topology.set_domains (Nm.topology v.Scenarios.nm) ~module_domains:[]
    ~domain_prefixes:[ ("C1-S1", "10.0.1.0/24"); ("C1-S2", "10.0.2.0/24") ];
  check tbool "no placeable path" true (Nm.find_paths v.Scenarios.nm v.Scenarios.goal = [])

let test_achieve_without_configure_is_pure () =
  let v = Scenarios.build_vpn () in
  (match Nm.achieve ~configure:false v.Scenarios.nm v.Scenarios.goal with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  check tbool "nothing configured" false (Scenarios.vpn_reachable v)

let test_achieve_error_no_path () =
  (* with the core out of scope the search finds nothing and no device is
     to blame *)
  let v = Scenarios.build_vpn () in
  let goal = { v.Scenarios.goal with Path_finder.g_scope = [ "id-A" ] } in
  match Nm.achieve ~configure:false v.Scenarios.nm goal with
  | Error e -> check tstr "error" "no path satisfies the goal" e
  | Ok _ -> Alcotest.fail "achieve must fail"

let test_achieve_error_unreachable () =
  (* every route crosses the core router: marking it unreachable names it *)
  let v = Scenarios.build_vpn () in
  Topology.set_reachable (Nm.topology v.Scenarios.nm) "id-B" false;
  match Nm.achieve ~configure:false v.Scenarios.nm v.Scenarios.goal with
  | Error e -> check tstr "error" "device unreachable: id-B" e
  | Ok _ -> Alcotest.fail "achieve must fail"

(* --- branch and bound vs enumerate-then-choose ------------------------------------- *)

let test_find_order_and_counts () =
  let v = Scenarios.build_vpn () in
  check (Alcotest.list tstr) "the nine, in traversal order"
    [
      "a, g, h, b, c, i, d, e, j, k, f";
      "a, g, h, b, c, i, p, d, e, q, j, k, f";
      "a, g, h, o, b, c, p, i, d, e, j, k, f";
      "a, g, h, o, b, c, p, d, e, q, j, k, f";
      "a, g, l, h, b, c, i, d, e, j, n, k, f";
      "a, g, l, h, b, c, i, p, d, e, q, j, n, k, f";
      "a, g, l, h, o, b, c, p, i, d, e, j, n, k, f";
      "a, g, l, h, o, b, c, p, d, e, q, j, n, k, f";
      "a, g, o, b, c, p, d, e, q, k, f";
    ]
    (List.map Path_finder.signature (all_paths v));
  List.iter
    (fun (n, expected) ->
      let c = Scenarios.build_chain n in
      check tint (Printf.sprintf "n=%d" n) expected
        (List.length (Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)))
    [ (2, 6); (3, 9); (6, 65); (8, 257) ]

let test_chain_ids_per_path () =
  (* a path's pushed headers are numbered by its own pushes, in order *)
  let c = Scenarios.build_chain 4 in
  List.iter
    (fun (p : Path_finder.path) ->
      let pushed =
        List.filter_map
          (fun (v : Path_finder.visit) ->
            if
              v.Path_finder.v_action = Path_finder.Push
              && v.Path_finder.v_chain <> Path_finder.base_eth
            then Some v.Path_finder.v_chain
            else None)
          p.Path_finder.visits
      in
      check (Alcotest.list tint) (Path_finder.signature p)
        (List.mapi (fun k _ -> Path_finder.base_ip + 1 + k) pushed)
        pushed)
    (Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)

(* The planner's cases: chains of 2..8 routers, the figure-4 VPN (plain
   and secure) and the diamond, each as (name, topology, goal, devices). *)
let planner_cases =
  lazy
    (List.map
       (fun n ->
         let c = Scenarios.build_chain n in
         ( Printf.sprintf "chain %d" n,
           Nm.topology c.Scenarios.cnm,
           c.Scenarios.cgoal,
           c.Scenarios.cscope ))
       [ 2; 3; 4; 5; 6; 7; 8 ]
    @ List.map
        (fun secure ->
          let v = Scenarios.build_vpn ~secure () in
          ( (if secure then "secure vpn" else "vpn"),
            Nm.topology v.Scenarios.nm,
            v.Scenarios.goal,
            v.Scenarios.scope ))
        [ false; true ]
    @
    let d = Scenarios.build_diamond () in
    [ ("diamond", Nm.topology d.Scenarios.dnm, d.Scenarios.dgoal, d.Scenarios.dscope) ])

(* [best] against [choose (filter (find ...))]: [next] successive winners
   plus a few random signatures are excluded (the monitor's next-best
   lever), and a random device set is avoided. *)
let prop_best_matches_choose =
  QCheck.Test.make ~name:"best = choose (filter (find ...)) under exclude/avoid" ~count:120
    (QCheck.make
       ~print:(fun (c, next, ex, av) ->
         Printf.sprintf "case=%d next=%d exclude=[%s] avoid=[%s]" c next
           (String.concat ";" (List.map string_of_int ex))
           (String.concat ";" (List.map string_of_int av)))
       QCheck.Gen.(
         quad (int_bound 9) (int_bound 3)
           (list_size (int_bound 3) nat)
           (list_size (int_bound 2) nat)))
    (fun (c, next, ex, av) ->
      let name, topo, goal, devices = List.nth (Lazy.force planner_cases) c in
      let all = Path_finder.find topo goal in
      let pick xs i = List.nth xs (i mod List.length xs) in
      let avoid = List.map (pick devices) av in
      let admit_dev d = not (List.mem d avoid) in
      let random_excluded = List.map (fun i -> Path_finder.signature (pick all i)) ex in
      let expected exclude =
        Path_finder.choose topo
          (List.filter
             (fun (p : Path_finder.path) ->
               (not (List.mem (Path_finder.signature p) exclude))
               && List.for_all
                    (fun (v : Path_finder.visit) -> admit_dev v.Path_finder.v_mod.Ids.dev)
                    p.Path_finder.visits)
             all)
      in
      (* exclude [next] winners in turn, checking every round *)
      let rec rounds exclude k =
        let want = expected exclude in
        let got =
          Path_finder.best ~admit_dev
            ~admit:(fun p -> not (List.mem (Path_finder.signature p) exclude))
            topo goal
        in
        let prims p = (Script_gen.generate topo goal p).Script_gen.prims in
        let same =
          match (got, want) with
          | None, None -> true
          | Some g, Some w -> g = w && prims g = prims w
          | _ -> false
        in
        if not same then
          QCheck.Test.fail_reportf "%s: best and choose differ with exclude [%s]" name
            (String.concat " | " exclude)
        else
          match want with
          | Some w when k > 0 -> rounds (Path_finder.signature w :: exclude) (k - 1)
          | _ -> true
      in
      rounds random_excluded next)

let test_achieve_allocation_guard () =
  (* planning the 12-router chain (4 097 candidates) without listing them *)
  let c = Scenarios.build_chain 12 in
  let before = Gc.minor_words () in
  (match Nm.achieve ~configure:false c.Scenarios.cnm c.Scenarios.cgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let words = Gc.minor_words () -. before in
  check tbool (Printf.sprintf "%.0f minor words < 4M" words) true (words < 4e6)

(* --- exhaustive: every enumerated path, once configured, carries traffic ---------- *)

let test_every_path_configures () =
  (* all 32 paths across chains of 2..4 routers: enumerate, configure each
     on a fresh testbed, verify bidirectional reachability *)
  List.iter
    (fun n ->
      let total =
        let c = Scenarios.build_chain n in
        List.length (Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal)
      in
      for i = 0 to total - 1 do
        let c = Scenarios.build_chain n in
        let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
        let path = List.nth paths i in
        let _ = Nm.configure_path c.Scenarios.cnm c.Scenarios.cgoal path in
        check tbool
          (Printf.sprintf "n=%d path %s" n (Path_finder.signature path))
          true
          (Nm.errors c.Scenarios.cnm = [] && Scenarios.chain_reachable c)
      done)
    [ 2; 3; 4 ]

(* ... and a sampled property for longer chains *)
let prop_any_path_configures =
  QCheck.Test.make ~name:"sampled n=5/6 paths configure to a working VPN" ~count:8
    (QCheck.make
       ~print:(fun (n, pick) -> Printf.sprintf "n=%d pick=%d" n pick)
       QCheck.Gen.(pair (int_range 5 6) (int_bound 1000)))
    (fun (n, pick) ->
      let c = Scenarios.build_chain n in
      let paths = Nm.find_paths c.Scenarios.cnm c.Scenarios.cgoal in
      let path = List.nth paths (pick mod List.length paths) in
      let _ = Nm.configure_path c.Scenarios.cnm c.Scenarios.cgoal path in
      Nm.errors c.Scenarios.cnm = [] && Scenarios.chain_reachable c)

let () =
  Alcotest.run "path_finder"
    [
      ( "invariants",
        [
          Alcotest.test_case "encapsulation balance" `Quick test_all_paths_balanced;
          Alcotest.test_case "endpoints" `Quick test_paths_start_and_end_at_goal;
          Alcotest.test_case "no revisits" `Quick test_no_module_revisits;
        ] );
      ( "chains",
        [
          Alcotest.test_case "path counts" `Quick test_chain_path_counts;
          Alcotest.test_case "pure paths exist" `Quick test_chain_pure_paths_exist;
        ] );
      ( "ablation",
        [ Alcotest.test_case "domain pruning" `Quick test_domain_pruning_ablation ] );
      ( "diamond",
        [
          Alcotest.test_case "full vs hierarchical" `Quick test_diamond_full_vs_hierarchical;
          Alcotest.test_case "both cores configure" `Quick test_diamond_both_cores_work;
        ] );
      ( "errors",
        [
          Alcotest.test_case "out of scope" `Quick test_no_path_outside_scope;
          Alcotest.test_case "missing domains" `Quick test_no_path_without_domains;
          Alcotest.test_case "achieve without configure" `Quick test_achieve_without_configure_is_pure;
          Alcotest.test_case "achieve: no path message" `Quick test_achieve_error_no_path;
          Alcotest.test_case "achieve: unreachable device message" `Quick
            test_achieve_error_unreachable;
        ] );
      ( "planner",
        [
          Alcotest.test_case "find order and counts" `Quick test_find_order_and_counts;
          Alcotest.test_case "chain ids per path" `Quick test_chain_ids_per_path;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |]) prop_best_matches_choose;
          Alcotest.test_case "chain 12 allocation guard" `Quick test_achieve_allocation_guard;
        ] );
      ( "properties",
        [
          Alcotest.test_case "every path configures (n=2..4)" `Quick test_every_path_configures;
          QCheck_alcotest.to_alcotest prop_any_path_configures;
        ] );
    ]

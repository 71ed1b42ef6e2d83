(* Tests for the observability layer (lib/obs + Observe wiring): registry
   key normalization and snapshot/delta/histogram semantics, bounded span
   collectors, and the end-to-end causal-trace invariants — a single-NM
   achieve yields one connected span tree; transport retries and agent
   dedup never duplicate execution spans; a cross-domain federated goal
   stitches into one tree spanning both NMs; and an HA failover replay
   links the post-promotion work under the spans the dead primary opened. *)

open Conman

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string
let tick_ns = 500_000_000L

let has_prefix pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* --- registry ------------------------------------------------------------------ *)

let test_registry_semantics () =
  let r = Obs.Registry.create () in
  Obs.Registry.register r "NM" (fun () -> [ ("Sent", 3); ("weird-name!", 1) ]);
  Obs.Registry.register r "agent" (fun () -> [ ("execs", 2) ]);
  (* names normalize to lowercase [a-z0-9_.]; subsystems are unique *)
  check tbool "duplicate subsystem rejected" true
    (try
       Obs.Registry.register r "nm" (fun () -> []);
       false
     with Invalid_argument _ -> true);
  check
    Alcotest.(list (pair string int))
    "snapshot renders sorted subsystem.name keys"
    [ ("agent.execs", 2); ("nm.sent", 3); ("nm.weird_name_", 1) ]
    (Obs.Registry.snapshot r);
  (* delta counts from zero for new keys and clamps resets to zero *)
  let d =
    Obs.Registry.delta ~base:[ ("nm.sent", 1); ("agent.execs", 5) ] (Obs.Registry.snapshot r)
  in
  check tint "delta counts movement" 2 (List.assoc "nm.sent" d);
  check tint "delta clamps a reset source to zero" 0 (List.assoc "agent.execs" d);
  (* histograms: dots survive normalization, stats come out sorted *)
  List.iter (Obs.Registry.observe r "fed.plan_ticks") [ 3; 1; 2; 2 ];
  (match Obs.Registry.histogram r "fed.plan_ticks" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
      check tint "count" 4 s.Obs.Registry.count;
      check tint "min" 1 s.Obs.Registry.min;
      check tint "max" 3 s.Obs.Registry.max;
      check tint "p50" 2 s.Obs.Registry.p50);
  check Alcotest.(list int) "raw samples kept in observation order" [ 3; 1; 2; 2 ]
    (Obs.Registry.samples r "fed.plan_ticks");
  check
    Alcotest.(list string)
    "histogram key kept its dot" [ "fed.plan_ticks" ]
    (List.map fst (Obs.Registry.histograms r));
  (* the JSON dump mentions both sections *)
  let json = Obs.Registry.to_json r in
  check tbool "json has counters" true (String.length json > 0 && String.index_opt json '{' = Some 0);
  List.iter
    (fun needle ->
      check tbool (needle ^ " present") true (contains needle json))
    [ "\"counters\""; "\"histograms\""; "\"fed.plan_ticks\""; "\"nm.sent\": 3" ]

(* --- bounded span collector ----------------------------------------------------- *)

let test_trace_bounded_collector () =
  Obs.Trace.reset_ids ();
  let col = Obs.Trace.create ~limit:4 ~station:"test" () in
  let clock = ref 0 in
  Obs.Trace.set_clock col (fun () -> !clock);
  let root = Obs.Trace.start col "root" in
  check tint "a root span's goal is its own id" root.Obs.Trace.span root.Obs.Trace.goal;
  check tint "a root span has no parent" 0 root.Obs.Trace.parent;
  clock := 2;
  let kid = Obs.Trace.start ~parent:root col "child" in
  check tint "a child joins its parent's goal" root.Obs.Trace.goal kid.Obs.Trace.goal;
  Obs.Trace.event col kid "retry 1";
  Obs.Trace.finish col kid ~status:"ok";
  Obs.Trace.finish col kid ~status:"failed: again";
  (match Obs.Trace.find col kid.Obs.Trace.span with
  | None -> Alcotest.fail "child span evicted too early"
  | Some s ->
      check tstr "finish is idempotent (first status wins)" "ok" s.Obs.Trace.s_status;
      check tint "span start is tick-stamped" 2 s.Obs.Trace.s_start;
      check
        Alcotest.(list (pair int string))
        "events tick-stamped in order"
        [ (2, "retry 1") ]
        s.Obs.Trace.s_events);
  (* push past the limit: oldest spans are dropped and counted *)
  for i = 0 to 5 do
    ignore (Obs.Trace.start col (Printf.sprintf "filler%d" i))
  done;
  check tbool "collector stays bounded" true (List.length (Obs.Trace.spans col) <= 4);
  check tint "evictions are counted, not silent" 4 (Obs.Trace.dropped col);
  check tbool "the root was evicted" true (Obs.Trace.find col root.Obs.Trace.span = None)

(* --- single-NM achieve: one connected tree -------------------------------------- *)

let test_single_nm_achieve_tree () =
  Nm.set_incarnations 0;
  Obs.Trace.reset_ids ();
  let d = Scenarios.build_diamond () in
  let obs = Observe.create () in
  let col =
    Observe.attach_nm obs ~agents:d.Scenarios.dagents ~transport:d.Scenarios.dtransport
      ~admission:d.Scenarios.dadmission ~faults:d.Scenarios.dfaults
      ~station:Scenarios.nm_station_id d.Scenarios.dnm
  in
  (match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve: %s" e);
  let goals = Obs.Trace.goals [ col ] in
  check tint "one goal traced" 1 (List.length goals);
  let g = List.hd goals in
  check tbool "tree is connected (one root, zero orphans)" true (Obs.Trace.connected [ col ] g);
  check tint "zero orphan spans" 0 (List.length (Obs.Trace.orphans [ col ] g));
  let spans = Obs.Trace.goal_spans [ col ] g in
  let named pre = List.filter (fun s -> has_prefix pre s.Obs.Trace.s_name) spans in
  check tbool "bundles were traced" true (List.length (named "bundle:") > 0);
  check tbool "agent executions were traced" true (List.length (named "exec:") > 0);
  (* every exec span was opened by an agent yet parents into the NM's tree *)
  List.iter
    (fun (s : Obs.Trace.span) ->
      check tbool (s.Obs.Trace.s_name ^ " linked under a bundle") true
        (List.exists (fun (p : Obs.Trace.span) -> p.Obs.Trace.s_id = s.Obs.Trace.s_parent)
           (named "bundle:")))
    (named "exec:")

(* --- transport retries + agent dedup never duplicate spans ----------------------- *)

let test_retries_dedup_no_duplicate_spans () =
  Nm.set_incarnations 0;
  Obs.Trace.reset_ids ();
  let d = Scenarios.build_diamond ~fault_seed:3 () in
  let obs = Observe.create () in
  let col =
    Observe.attach_nm obs ~agents:d.Scenarios.dagents ~transport:d.Scenarios.dtransport
      ~admission:d.Scenarios.dadmission ~faults:d.Scenarios.dfaults
      ~station:Scenarios.nm_station_id d.Scenarios.dnm
  in
  (* a lossy, duplicating channel: Reliable retransmits, receivers dedup *)
  Mgmt.Faults.set_drop d.Scenarios.dfaults 0.25;
  Mgmt.Faults.set_duplicate d.Scenarios.dfaults 0.25;
  (match Nm.achieve d.Scenarios.dnm d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve under loss: %s" e);
  let c = Mgmt.Reliable.counters d.Scenarios.dtransport in
  check tbool "the channel actually retransmitted" true (c.Mgmt.Reliable.retransmits > 0);
  check tbool "duplicates actually arrived" true (c.Mgmt.Reliable.duplicates > 0);
  let g = List.hd (Obs.Trace.goals [ col ]) in
  check tbool "tree still connected under loss" true (Obs.Trace.connected [ col ] g);
  check tint "zero orphans under loss" 0 (List.length (Obs.Trace.orphans [ col ] g));
  (* the invariant: retransmission and duplicate delivery never mint a
     second exec span for the same device — dedup suppresses the frame
     before the agent's script runner sees it *)
  let execs =
    List.filter
      (fun s -> has_prefix "exec:" s.Obs.Trace.s_name)
      (Obs.Trace.goal_spans [ col ] g)
  in
  check tbool "scripts were traced" true (execs <> []);
  check tint "one exec span per device, despite retries and duplicates"
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Obs.Trace.s_name) execs)))
    (List.length execs)

(* --- federated goal: one tree across two NMs ------------------------------------ *)

let test_fed_connected_tree () =
  Nm.set_incarnations 0;
  Obs.Trace.reset_ids ();
  let t = Federation.Fed_scenarios.build_two_domain 4 in
  let open Federation.Fed_scenarios in
  let obs = instrument t in
  let gid = Federation.Fed.submit t.fwest t.fgoal in
  check tbool "cross-domain goal converges" true (converge ~obs t gid);
  let cols = Observe.collectors obs in
  let g =
    match Federation.Fed.goal_trace t.fwest gid with
    | Some ctx -> ctx.Obs.Trace.goal
    | None -> Alcotest.fail "no trace root for the federated goal"
  in
  check tbool "one connected tree across both NMs" true (Obs.Trace.connected cols g);
  check tint "zero orphan spans" 0 (List.length (Obs.Trace.orphans cols g));
  let spans = Obs.Trace.goal_spans cols g in
  let stations = List.sort_uniq compare (List.map (fun s -> s.Obs.Trace.s_station) spans) in
  check tbool "spans live on both stations" true (List.length stations >= 2);
  List.iter
    (fun name ->
      check tbool (name ^ " span present") true
        (List.exists (fun s -> s.Obs.Trace.s_name = name) spans))
    [ "fed-goal"; "plan"; "plan-expand"; "commit"; "delegated:east" ];
  (* the root closed cleanly once the goal was achieved *)
  (match List.find_opt (fun s -> s.Obs.Trace.s_parent = 0) spans with
  | None -> Alcotest.fail "no root span"
  | Some root ->
      check tstr "root status" "ok" root.Obs.Trace.s_status;
      check tbool "root closed" true (root.Obs.Trace.s_end >= 0));
  (* rendering mentions work on both stations *)
  let rendered = Obs.Trace.render cols g in
  List.iter
    (fun needle ->
      check tbool (needle ^ " rendered") true (contains needle rendered))
    [ "fed-goal"; "@ id-NM-W"; "@ id-NM-E" ]

(* --- HA failover: replayed work links under the dead primary's spans ------------- *)

let test_ha_replay_links_spans () =
  Nm.set_incarnations 0;
  Obs.Trace.reset_ids ();
  let d = Scenarios.build_diamond () in
  let net = d.Scenarios.dtb.Netsim.Testbeds.dia_net in
  let standby =
    Nm.create ~transport:d.Scenarios.dtransport ~chan:d.Scenarios.dchan ~net
      ~my_id:Scenarios.standby_station_id ()
  in
  let p, s = Ha.pair ~primary:d.Scenarios.dnm ~standby () in
  let obs = Observe.create () in
  let col =
    Observe.attach_nm obs ~agents:d.Scenarios.dagents ~transport:d.Scenarios.dtransport
      ~admission:d.Scenarios.dadmission ~faults:d.Scenarios.dfaults
      ~station:Scenarios.nm_station_id d.Scenarios.dnm
  in
  let scol = Observe.attach_nm obs ~prefix:"standby" ~station:Scenarios.standby_station_id standby in
  let cols = [ col; scol ] in
  let step tick =
    Observe.set_tick obs tick;
    ignore
      (Netsim.Net.run_until net
         ~deadline:(Int64.add (Netsim.Event_queue.now (Netsim.Net.eq net)) tick_ns));
    Ha.tick p ~tick;
    Ha.tick s ~tick
  in
  for t = 0 to 1 do
    step t
  done;
  (* id-C drops off the channel mid-achieve; a short horizon makes achieve
     return optimistically before the transport gives the device up, so
     its Traced bundle is stranded in flight when the primary dies *)
  Mgmt.Faults.partition d.Scenarios.dfaults "id-C";
  Nm.set_horizon (Ha.nm p)
    (Some (Int64.add (Netsim.Event_queue.now (Netsim.Net.eq net)) 10_000_000L));
  (match Nm.achieve (Ha.nm p) d.Scenarios.dgoal with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "achieve within the horizon: %s" e);
  check tbool "request left in flight at the primary" true (Nm.inflight_count (Ha.nm p) > 0);
  check tbool "a stranded request carries its trace context" true
    (List.exists (fun (_, _, msg) -> Wire.trace_of msg <> None) (Nm.inflight (Ha.nm p)));
  ignore (Netsim.Net.run net);
  Mgmt.Faults.crash d.Scenarios.dfaults Scenarios.nm_station_id;
  Ha.set_alive p false;
  let promoted = ref None in
  (try
     for t = 2 to 14 do
       step t;
       if !promoted = None && Ha.role s = Ha.Primary then begin
         promoted := Some t;
         raise Exit
       end
     done
   with Exit -> ());
  let t0 = match !promoted with Some t -> t | None -> Alcotest.fail "standby never promoted" in
  check tbool "promotion replayed the unconfirmed requests" true
    (List.assoc "replayed" (Ha.obs_counters s) > 0);
  check tbool "promotion bumped the epoch" true (Ha.epoch s > 0);
  Mgmt.Faults.heal d.Scenarios.dfaults "id-C";
  for t = t0 + 1 to t0 + 4 do
    step t
  done;
  Nm.flush_inflight (Ha.nm s);
  check tint "every replayed request confirmed" 0 (Nm.inflight_count (Ha.nm s));
  (* the trace invariant: the replay preserved the original contexts, so
     the work finished under the NEW epoch still hangs off the spans the
     dead primary opened — one goal, zero orphans across both collectors *)
  List.iter
    (fun g ->
      check tint
        (Printf.sprintf "goal %d has zero orphans across failover" g)
        0
        (List.length (Obs.Trace.orphans cols g)))
    (Obs.Trace.goals cols);
  let g = List.hd (Obs.Trace.goals cols) in
  let spans = Obs.Trace.goal_spans cols g in
  (* the takeover opened a replay span ON THE NEW STATION, parented on the
     context the dead primary stamped into the stranded frame *)
  let replays = List.filter (fun s -> has_prefix "replay:id-C" s.Obs.Trace.s_name) spans in
  check tbool "the replayed request got a replay span" true (replays <> []);
  List.iter
    (fun (r : Obs.Trace.span) ->
      check tstr "replay span lives on the new leader's station" Scenarios.standby_station_id
        r.Obs.Trace.s_station;
      check tbool "replay span linked under the dead primary's work" true
        (List.exists
           (fun (pspan : Obs.Trace.span) ->
             pspan.Obs.Trace.s_id = r.Obs.Trace.s_parent && pspan.Obs.Trace.s_start < t0)
           spans))
    replays;
  (* ... and id-C's eventual execution hangs off that replay span *)
  let late_execs =
    List.filter
      (fun s -> has_prefix "exec:id-C" s.Obs.Trace.s_name && s.Obs.Trace.s_start >= t0)
      spans
  in
  check tbool "id-C's script ran only after the failover" true (late_execs <> []);
  List.iter
    (fun (s : Obs.Trace.span) ->
      check tbool "post-failover exec linked under the replay span" true
        (List.exists
           (fun (r : Obs.Trace.span) -> r.Obs.Trace.s_id = s.Obs.Trace.s_parent)
           replays))
    late_execs

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [ Alcotest.test_case "normalize, snapshot, delta, histograms" `Quick test_registry_semantics ] );
      ( "trace",
        [
          Alcotest.test_case "bounded collector, tick stamps, idempotent finish" `Quick
            test_trace_bounded_collector;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "single-NM achieve yields one connected tree" `Quick
            test_single_nm_achieve_tree;
          Alcotest.test_case "retries and dedup never duplicate spans" `Quick
            test_retries_dedup_no_duplicate_spans;
          Alcotest.test_case "federated goal stitches one tree across NMs" `Quick
            test_fed_connected_tree;
          Alcotest.test_case "failover replay links spans under the new epoch" `Quick
            test_ha_replay_links_spans;
        ] );
    ]

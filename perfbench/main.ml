(* Closed-loop benchmark of the NM's public API.

   One caller in one process and thread sends the next request only after
   the previous one completed. Usage, from the root of the repository:

     bash perfbench/run.sh --workload plan-chain10|churn-vpn|scrape-vlan64|all \
       --seed N --seconds S --trace 0|1

   Each workload repeats rounds until [--seconds] have passed. A round
   builds a fresh deployment and runs a fixed number of ops on it, so
   every op index sees the same NM history whatever the machine's speed:
   runs of different length and different commits compare like with
   like. The seed draws the ping payloads; every round of a run uses the
   same payloads, which makes every round allocate, send and wait the
   same.

   [--trace 0] times the ops with nothing attached and prints the
   end-to-end metrics. [--trace 1] runs a third of the time untraced
   (for the intent figures) and the rest as split ops that call the
   layers [Nm.achieve] calls one by one, with spans around each call on
   every other op; it prints per-layer self time, allocation and counts
   and writes the spans to [.perfbench/]. Correctness checks run between
   ops, outside the measured window; any failure makes the run exit 1.
   The last line of standard output is one JSON object. *)

open Conman

let now = Unix.gettimeofday
let ip = Packet.Ipv4_addr.of_string

(* --- spans ------------------------------------------------------------- *)

type span = {
  op : int;
  id : int;
  parent : int; (* -1 for a root *)
  name : string;
  t0 : float;
  t1 : float;
  words : float; (* minor words allocated inside the span *)
}

let recording = ref false
let spans : span list ref = ref []
let next_span = ref 0
let cur_op = ref 0
let cur_parent = ref (-1)

let span name f =
  if not !recording then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = !cur_parent in
    cur_parent := id;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    cur_parent := parent;
    spans := { op = !cur_op; id; parent; name; t0; t1; words = w1 -. w0 } :: !spans;
    r
  end

(* --- deployments ---------------------------------------------------------- *)

type goal_ws = {
  goal : Path_finder.goal;
  h1 : Netsim.Device.t; (* 10.0.1.2 *)
  h2 : Netsim.Device.t; (* 10.0.2.2 *)
  paper_mpls : bool; (* the chosen path must be the paper's MPLS path *)
}

type scrape_ws = { tel : Telemetry.t; cust : Netsim.Device.t (* 10.0.3.1 *) }
type kind = Goal of goal_ws | Scrape of scrape_ws

type dep = {
  nm : Nm.t;
  net : Netsim.Net.t;
  scope : string list;
  chan : Mgmt.Channel.t;
  transport : Mgmt.Reliable.t;
  admission : Mgmt.Admission.t;
  kind : kind;
}

type workload = {
  name : string;
  round_ops : int;
  setups : int; (* deployments built, and timed, at the start of each round *)
  build : unit -> dep;
  testbed : unit -> unit; (* the bare netsim testbed of [build] *)
}

let build_chain10 () =
  let c = Scenarios.build_chain 10 in
  {
    nm = c.Scenarios.cnm;
    net = c.Scenarios.ctb.Netsim.Testbeds.chain_net;
    scope = c.Scenarios.cscope;
    chan = c.Scenarios.cchan;
    transport = c.Scenarios.ctransport;
    admission = c.Scenarios.cadmission;
    kind =
      Goal
        {
          goal = c.Scenarios.cgoal;
          h1 = c.Scenarios.ctb.Netsim.Testbeds.chain_host1;
          h2 = c.Scenarios.ctb.Netsim.Testbeds.chain_host2;
          paper_mpls = false;
        };
  }

let build_vpn () =
  let v = Scenarios.build_vpn () in
  {
    nm = v.Scenarios.nm;
    net = v.Scenarios.tb.Netsim.Testbeds.vpn_net;
    scope = v.Scenarios.scope;
    chan = v.Scenarios.chan;
    transport = v.Scenarios.transport;
    admission = v.Scenarios.admission;
    kind =
      Goal
        {
          goal = v.Scenarios.goal;
          h1 = v.Scenarios.tb.Netsim.Testbeds.host1;
          h2 = v.Scenarios.tb.Netsim.Testbeds.host2;
          paper_mpls = true;
        };
  }

let vlan_switches = 64

let build_vlan64 () =
  let v = Scenarios.build_vlan_chain vlan_switches in
  let nm = v.Scenarios.vcnm in
  (match
     Nm.achieve_l2 nm ~scope:v.Scenarios.vcscope ~from_eth:(Ids.v "ETH" "eth1" "id-Sw1")
       ~to_eth:
         (Ids.v "ETH"
            (Printf.sprintf "eth%d" vlan_switches)
            (Printf.sprintf "id-Sw%d" vlan_switches))
   with
  | Ok _ -> ()
  | Error e -> failwith ("scrape-vlan64 set-up: achieve_l2: " ^ e));
  {
    nm;
    net = v.Scenarios.vctb.Netsim.Testbeds.vc_net;
    scope = v.Scenarios.vcscope;
    chan = v.Scenarios.vcchan;
    transport = v.Scenarios.vctransport;
    admission = v.Scenarios.vcadmission;
    kind =
      Scrape
        {
          tel = Telemetry.create ~scope:v.Scenarios.vcscope nm;
          cust = v.Scenarios.vctb.Netsim.Testbeds.vc_cust1;
        };
  }

let workloads =
  [
    {
      name = "plan-chain10";
      round_ops = 20;
      setups = 8;
      build = build_chain10;
      testbed = (fun () -> ignore (Netsim.Testbeds.chain 10));
    };
    {
      (* Sized by op count: the NM keeps every retired intent and scans
         them on each achieve and teardown, so op cost grows with the op
         index within a round. *)
      name = "churn-vpn";
      round_ops = 2000;
      setups = 16;
      build = build_vpn;
      testbed = (fun () -> ignore (Netsim.Testbeds.vpn ()));
    };
    {
      name = "scrape-vlan64";
      round_ops = 100;
      setups = 4;
      build = build_vlan64;
      testbed = (fun () -> ignore (Netsim.Testbeds.vlan_chain vlan_switches));
    };
  ]

(* --- ops ------------------------------------------------------------------ *)

(* What an op returns for the checks that follow it. *)
type result =
  | Goal_done of {
      path : Path_finder.path;
      pinged : bool;
      candidates : int; (* split ops only *)
      script : Script_gen.script option; (* split ops only *)
    }
  | Scrape_done of {
      pinged : bool;
      answered : int;
      anomalies : Diagnose.anomaly list;
      actuals : (Ids.t * (string * string) list) list option list;
    }
  | Op_error of string

let ping net ~from ~src ~dst payload =
  (Netsim.Ping.run ~payload net ~from ~src:(ip src) ~dst:(ip dst) ()).Netsim.Ping.replied

let ping_both d g (p1, p2) =
  let a = ping d.net ~from:g.h1 ~src:"10.0.1.2" ~dst:"10.0.2.2" p1 in
  let b = ping d.net ~from:g.h2 ~src:"10.0.2.2" ~dst:"10.0.1.2" p2 in
  a && b

(* The op as a user issues it. *)
let goal_op d g payload =
  match Nm.achieve d.nm g.goal with
  | Error e -> Op_error ("achieve: " ^ e)
  | Ok (_, path, script) ->
      let pinged = ping_both d g payload in
      Nm.teardown d.nm script;
      Goal_done { path; pinged; candidates = 0; script = None }

(* The same op split into the calls [Nm.achieve] makes, in its order, so
   each layer can be timed from outside. It skips the intent journal. *)
let goal_op_split d g payload =
  let topo = Nm.topology d.nm in
  let paths = span "path_finder.find" (fun () -> Nm.find_paths d.nm g.goal) in
  match span "path_finder.choose" (fun () -> Path_finder.choose topo paths) with
  | None -> Op_error "no path satisfies the goal"
  | Some path ->
      let script = span "script_gen.generate" (fun () -> Script_gen.generate topo g.goal path) in
      let applied = span "nm.configure" (fun () -> Nm.configure_path d.nm g.goal path) in
      let pinged = span "netsim.ping" (fun () -> ping_both d g payload) in
      span "nm.teardown" (fun () -> Nm.teardown d.nm applied);
      Goal_done { path; pinged; candidates = List.length paths; script = Some script }

(* One monitoring round; the same calls whether traced or not. *)
let scrape_op d s (payload, _) =
  let pinged =
    span "netsim.ping" (fun () -> ping d.net ~from:s.cust ~src:"10.0.3.1" ~dst:"10.0.3.2" payload)
  in
  let r0 = Nm.stats_received d.nm in
  span "telemetry.scrape" (fun () -> Telemetry.scrape s.tel);
  let answered = Nm.stats_received d.nm - r0 in
  let anomalies = span "diagnose.anomalies" (fun () -> Telemetry.anomalies s.tel) in
  let actuals =
    span "nm.show_actual" (fun () -> List.map (fun dev -> Nm.show_actual d.nm dev) d.scope)
  in
  Scrape_done { pinged; answered; anomalies; actuals }

(* --- correctness checks (outside the measured window) --------------------- *)

let paper_mpls_signature = "a, g, o, b, c, p, d, e, q, k, f"

(* The chosen path of the first op; every later op must choose it too. *)
let reference_signature : string option ref = ref None

(* Every device's showActual as "device module key = value" lines, less
   the ETH ports' rx/tx traffic counters, which the pings move by design. *)
let config_state d =
  List.concat_map
    (fun dev ->
      match Nm.show_actual d.nm dev with
      | None -> [ dev ^ " did not answer showActual" ]
      | Some mods ->
          List.concat_map
            (fun ((m : Ids.t), kvs) ->
              List.filter_map
                (fun (k, v) ->
                  match Scanf.sscanf v "rx=%d tx=%d%!" (fun _ _ -> ()) with
                  | () -> None
                  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
                      Some (Printf.sprintf "%s %s %s = %s" dev (Ids.qualified m) k v))
                kvs)
            mods)
    d.scope

let state_diff before after =
  List.map (( ^ ) "+ ") (List.filter (fun l -> not (List.mem l before)) after)
  @ List.map (( ^ ) "- ") (List.filter (fun l -> not (List.mem l after)) before)

(* Failures of one op, empty when it passed. [baseline] is the state
   before the op's goal, which teardown must restore. *)
let check d ~baseline result =
  match (d.kind, result) with
  | _, Op_error e -> [ e ]
  | Goal g, Goal_done { path; pinged; _ } ->
      let sg = Path_finder.signature path in
      let same =
        match !reference_signature with
        | None ->
            reference_signature := Some sg;
            []
        | Some r when r = sg -> []
        | Some r -> [ Printf.sprintf "chose [%s], earlier ops chose [%s]" sg r ]
      in
      let mpls =
        if g.paper_mpls && not (sg = paper_mpls_signature && Scenarios.pure_mpls path) then
          [ Printf.sprintf "chose [%s], not the paper's MPLS path" sg ]
        else []
      in
      let ping = if pinged then [] else [ "a ping got no reply" ] in
      let backout =
        match state_diff baseline (config_state d) with
        | [] -> []
        | diff -> [ "teardown left showActual changed: " ^ String.concat "; " diff ]
      in
      same @ mpls @ ping @ backout
  | Scrape s, Scrape_done { pinged; answered; anomalies; actuals } ->
      let n = List.length d.scope in
      let store = Telemetry.store s.tel in
      (* the ping is one echo each way: every pipe on the tunnel carried
         exactly one frame up and one down since the last scrape *)
      let counters =
        match Diagnose.keys store with
        | [] -> [ "telemetry store holds no series" ]
        | keys ->
            List.filter_map
              (fun (k : Diagnose.key) ->
                let up = Diagnose.last_delta store k "up_frames"
                and down = Diagnose.last_delta store k "down_frames" in
                if up = 1 && down = 1 then None
                else
                  Some
                    (Fmt.str "%a rose by %d up, %d down; the ping sent 1 each way"
                       Diagnose.pp_key k up down))
              keys
      in
      (if pinged then [] else [ "the ping got no reply" ])
      @ (if answered = n then [] else [ Printf.sprintf "%d of %d showPerf answered" answered n ])
      @ List.map (Fmt.str "anomaly on a clean network: %a" Diagnose.pp_anomaly) anomalies
      @ (if List.for_all Option.is_some actuals then [] else [ "a showActual got no answer" ])
      @ counters
  | Goal _, Scrape_done _ | Scrape _, Goal_done _ -> [ "op of the wrong kind" ]

(* Re-encodes and decodes the messages the op put on the wire, rebuilt
   from its script or the reports it got back. Returns the encoded size. *)
let wire_check result =
  let msgs =
    match result with
    | Goal_done { script = Some s; _ } ->
        List.concat_map
          (fun (sc : Script_gen.script) ->
            List.map
              (fun (_, cmds) -> Wire.Bundle { req = !cur_op; cmds; annex = Wire.empty_annex })
              sc.Script_gen.per_device)
          [ s; Script_gen.deletion_script s ]
    | Scrape_done { actuals; _ } ->
        List.filter_map
          (Option.map (fun state -> Wire.Show_actual_resp { req = !cur_op; state }))
          actuals
    | Goal_done { script = None; _ } | Op_error _ -> []
  in
  let bytes = span "wire.encode" (fun () -> List.map Wire.encode msgs) in
  let back = span "wire.decode" (fun () -> List.map Wire.decode bytes) in
  let size = List.fold_left (fun acc b -> acc + Bytes.length b) 0 bytes in
  ( size,
    if List.for_all2 Wire.equal msgs back then []
    else [ "a message did not survive encode/decode" ] )

(* --- host speed -------------------------------------------------------------- *)

(* The shared hosts this benchmark was tuned on switch between a fast and
   a slow state for seconds to minutes at a time. In the slow state,
   allocation-heavy code such as the NM runs up to 1.8 times slower,
   while integer arithmetic keeps its speed. A run can stay in either
   state from start to end, so no statistic of raw wall times over one
   run is steady from run to run. The benchmark therefore times a fixed
   reference loop, which shares no code with the program, next to the
   ops, and scales every timing to a host that runs the loop in
   [reference_s]. On the same hosts an op's time divided by the loop's
   time at that moment varied about half as much as the op's time
   alone. Over runs whose op counts differed by up to 44% with the
   host's speed, the scaled op median moved by at most 7%. *)

(* Allocation, hashing and a growing table: what slows down with the host. *)
let reference_loop () =
  let h = Hashtbl.create 16 in
  for i = 1 to 2000 do
    Hashtbl.replace h (i * 7919 land 0xffff) (string_of_int i)
  done;
  ignore (Sys.opaque_identity h)

(* About the loop's time on those hosts in their fast state. *)
let reference_s = 3e-4

(* Loop times, newest first, and how many there are. *)
let loops : float list ref = ref []
let n_loops = ref 0

(* Times the loop. It runs before every op and every build, so a round
   allocates the same whatever the host's speed. Returns the sample
   count, which places the caller among the samples. *)
let sample_host () =
  let t0 = now () in
  reference_loop ();
  loops := (now () -. t0) :: !loops;
  incr n_loops;
  !n_loops

(* Scales a time taken when [at] samples had been taken: by the median
   loop time of the four samples before and the four after it. *)
let host_scaler () =
  let a = Array.of_list (List.rev !loops) in
  let n = Array.length a in
  fun (t, at) ->
    let lo = max 0 (min (n - 8) (at - 4)) in
    let w = Array.sub a lo (min 8 n) in
    Array.sort compare w;
    t *. reference_s /. w.((Array.length w - 1) / 2)

(* --- the measured loop ------------------------------------------------------ *)

type counts = {
  sent : int;
  received : int;
  frames : int;
  acks : int;
  retransmits : int;
  data : int;
  deferred : int;
  shed : int;
}

let counts d =
  let r = Mgmt.Reliable.counters d.transport in
  let adm = Mgmt.Admission.counters d.admission in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 adm in
  {
    sent = Nm.stats_sent d.nm;
    received = Nm.stats_received d.nm;
    frames = (Mgmt.Channel.stats d.chan).Mgmt.Channel.frames_sent;
    acks = r.Mgmt.Reliable.acks_received;
    retransmits = r.Mgmt.Reliable.retransmits;
    data = r.Mgmt.Reliable.data_sent;
    deferred = sum (fun c -> c.Mgmt.Admission.deferred);
    shed = sum (fun c -> c.Mgmt.Admission.shed);
  }

let diff a b =
  {
    sent = b.sent - a.sent;
    received = b.received - a.received;
    frames = b.frames - a.frames;
    acks = b.acks - a.acks;
    retransmits = b.retransmits - a.retransmits;
    data = b.data - a.data;
    deferred = b.deferred - a.deferred;
    shed = b.shed - a.shed;
  }

type record = {
  idx : int; (* op index within its round *)
  wall : float; (* s *)
  at : int; (* host samples taken before the op *)
  words : float;
  virt_ns : int64;
  c : counts;
  traced : bool;
  candidates : int;
  prims : int;
  answered : int; (* showPerf answers *)
  wire_bytes : int;
  errors : string list;
}

type pass = {
  records : record list; (* in run order *)
  rounds : int;
  history : int; (* intents the NM holds at the end of the last round *)
  queue_high_water : int;
  first_goal_leak : string list; (* showActual lines the round's warm-up goal left changed *)
  live_heap_words : int; (* live after the first round, in a full major collection *)
  setup_s : (float * int) list; (* every deployment build, with its host sample count *)
  last : dep;
}

let vnow d = Netsim.Event_queue.now (Netsim.Net.eq d.net)

(* Ops arrive a virtual second apart. By then the check traffic between
   ops has drained and the admission token buckets have refilled, so
   each op meets the management plane it would meet with no checks. *)
let idle d = ignore (Netsim.Net.run_until d.net ~deadline:(Int64.add (vnow d) 1_000_000_000L))

(* Runs whole rounds until [seconds] have passed (at least one round).
   With [split], ops go through the split path and every even-indexed op
   records spans. *)
let run_pass w ~payloads ~split ~seconds =
  let deadline = now () +. seconds in
  let records = ref [] and rounds = ref 0 and last = ref None and high = ref 0 and leak = ref [] in
  let live = ref 0 and setups = ref [] in
  let build () =
    let at = sample_host () in
    let t0 = now () in
    let d = w.build () in
    setups := (now () -. t0, at) :: !setups;
    d
  in
  while !rounds = 0 || now () < deadline do
    (* set-up is timed across the whole run, not in one burst at its
       start, so a short stall of the host weighs on few samples *)
    for _ = 2 to w.setups do
      ignore (build ())
    done;
    let d = build () in
    (* A warm-up op resolves ARP and, for telemetry, sets the counter
       baselines the checks compare against. The first goal on a fresh
       deployment leaves state behind after its teardown, so the measured
       ops' back-out baseline is the state after it; what it left is
       reported as a finding, not as a failure. *)
    let baseline =
      match d.kind with
      | Goal g ->
          let fresh = config_state d in
          ignore (goal_op d g payloads.(0));
          let after = config_state d in
          if !rounds = 0 then leak := state_diff fresh after;
          after
      | Scrape s ->
          ignore (scrape_op d s payloads.(0));
          []
    in
    for idx = 0 to w.round_ops - 1 do
      incr cur_op;
      let traced = split && idx mod 2 = 0 in
      let op () =
        match d.kind with
        | Goal g -> if split then goal_op_split d g payloads.(idx) else goal_op d g payloads.(idx)
        | Scrape s -> scrape_op d s payloads.(idx)
      in
      idle d;
      let at = sample_host () in
      recording := traced;
      let c0 = counts d and v0 = vnow d in
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let result = span "op" op in
      let t1 = now () in
      let w1 = Gc.minor_words () in
      let v1 = vnow d and c1 = counts d in
      let wire_bytes, wire_errors = if traced then wire_check result else (0, []) in
      recording := false;
      let candidates, prims, answered =
        match result with
        | Goal_done { candidates; script = Some s; _ } ->
            (candidates, List.length s.Script_gen.prims, 0)
        | Scrape_done { answered; _ } -> (0, 0, answered)
        | Goal_done _ | Op_error _ -> (0, 0, 0)
      in
      records :=
        {
          idx;
          wall = t1 -. t0;
          at;
          words = w1 -. w0;
          virt_ns = Int64.sub v1 v0;
          c = diff c0 c1;
          traced;
          candidates;
          prims;
          answered;
          wire_bytes;
          errors = check d ~baseline result @ wire_errors;
        }
        :: !records
    done;
    Array.iter
      (fun (c : Mgmt.Admission.class_counters) ->
        high := max !high c.Mgmt.Admission.queue_high_water)
      (Mgmt.Admission.counters d.admission);
    (* Live words, unlike the heap's top, do not depend on when the
       major collector happened to run, so they repeat for a seed. *)
    if !rounds = 0 then begin
      Gc.full_major ();
      live := (Gc.stat ()).Gc.live_words
    end;
    incr rounds;
    last := Some d
  done;
  let last = Option.get !last in
  {
    records = List.rev !records;
    rounds = !rounds;
    history = List.length (Nm.intents last.nm);
    queue_high_water = !high;
    first_goal_leak = !leak;
    live_heap_words = !live;
    setup_s = !setups;
    last;
  }

(* --- statistics -------------------------------------------------------------- *)

let sorted l = List.sort compare l |> Array.of_list

(* Nearest-rank percentile, [p] in (0, 1]. *)
let pct p l =
  match sorted l with
  | [||] -> 0.
  | a -> a.(max 0 (int_of_float (Float.ceil (p *. float_of_int (Array.length a))) - 1))

let median l = pct 0.5 l
let mean l = match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let ratio a b = if b = 0. then 0. else a /. b
let per_op f records =
  match records with
  | [] -> 0.
  | _ ->
      float_of_int (List.fold_left (fun acc r -> acc + f r) 0 records)
      /. float_of_int (List.length records)

(* --- per-layer aggregation --------------------------------------------------- *)

(* Layers in the order of the baseline phase table in ROADMAP.md. The ops
   are the roots; wire re-encoding runs after the op, outside it. *)
let layer_rows =
  [
    "path_finder.find";
    "path_finder.choose";
    "script_gen.generate";
    "nm.configure";
    "netsim.ping";
    "nm.teardown";
    "telemetry.scrape";
    "diagnose.anomalies";
    "nm.show_actual";
  ]

type layer = {
  self_ms : float list; (* per traced op: self time of the layer's spans in it *)
  kwords : float list; (* per traced op: self allocation *)
  calls : int;
}

(* A span's self time and allocation are its own less what its children
   cover. Returns the number of traced ops and the layers by span name. *)
let aggregate (spans : span list) =
  let add tbl key (t, w) =
    let t0, w0 = Option.value ~default:(0., 0.) (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (t0 +. t, w0 +. w)
  in
  let children = Hashtbl.create 4096 in
  List.iter
    (fun (s : span) -> if s.parent >= 0 then add children s.parent (s.t1 -. s.t0, s.words))
    spans;
  let cells = Hashtbl.create 4096 and calls = Hashtbl.create 64 in
  List.iter
    (fun (s : span) ->
      let ct, cw = Option.value ~default:(0., 0.) (Hashtbl.find_opt children s.id) in
      add cells (s.name, s.op) (s.t1 -. s.t0 -. ct, s.words -. cw);
      Hashtbl.replace calls s.name (1 + Option.value ~default:0 (Hashtbl.find_opt calls s.name)))
    spans;
  let ops = List.sort_uniq compare (List.map (fun (s : span) -> s.op) spans) in
  let layer name =
    let per f =
      List.map
        (fun op -> f (Option.value ~default:(0., 0.) (Hashtbl.find_opt cells (name, op))))
        ops
    in
    match Hashtbl.find_opt calls name with
    | None -> { self_ms = []; kwords = []; calls = 0 }
    | Some calls ->
        { self_ms = per (fun (t, _) -> t *. 1e3); kwords = per (fun (_, w) -> w /. 1e3); calls }
  in
  (List.length ops, layer)

(* --- output ------------------------------------------------------------------ *)

let json_metrics metrics =
  metrics
  |> List.map (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
           (if Float.is_finite v then v else 0.)
           unit)
  |> String.concat ", "

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (json_metrics metrics)

let print_metrics metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "  %-28s %14.4f %s\n" name v unit) metrics

let report_failures wname records =
  let failed = List.filter (fun r -> r.errors <> []) records in
  List.iteri
    (fun i r ->
      if i < 5 then
        List.iter
          (fun e -> Printf.eprintf "%s: op %d of its round failed: %s\n" wname r.idx e)
          r.errors)
    failed;
  List.length failed

let report_leak p =
  if p.first_goal_leak <> [] then
    Printf.printf
      "  finding: the first goal on a fresh deployment leaves showActual changed after its \
       teardown (not counted as a failure): %s\n"
      (String.concat "; " p.first_goal_leak)

let e2e w ~payloads ~seconds =
  let p = run_pass w ~payloads ~split:false ~seconds in
  ignore (sample_host ()) (* so the last op has samples after it *);
  let scale = host_scaler () in
  let walls = List.map (fun r -> scale (r.wall, r.at)) p.records in
  let n = List.length p.records in
  let failed = report_failures w.name p.records in
  let metrics =
    [
      ("setup_s", "s", median (List.map scale p.setup_s));
      ("op_p50_ms", "ms", 1e3 *. median walls);
      ("op_p90_ms", "ms", 1e3 *. pct 0.9 walls);
      ("ops_per_s", "1/s", ratio (float_of_int n) (List.fold_left ( +. ) 0. walls));
      ("mgmt_msgs_per_op", "count", per_op (fun r -> r.c.sent + r.c.received) p.records);
      (* integer totals, so equal rounds give bit-equal figures whatever
         the number of rounds *)
      ( "op_virtual_ms",
        "sim_ms",
        Int64.to_float (List.fold_left (fun acc r -> Int64.add acc r.virt_ns) 0L p.records)
        /. float_of_int n /. 1e6 );
      ( "alloc_kwords_per_op",
        "kwords",
        List.fold_left (fun acc r -> acc +. r.words) 0. p.records /. float_of_int n /. 1e3 );
      (* read after the first round, which every run completes, so it
         does not grow with the number of rounds a fast machine fits in *)
      ("live_heap_mb", "MB", float_of_int (p.live_heap_words * (Sys.word_size / 8)) /. 1e6);
    ]
  in
  Printf.printf "%s: %d ops in %d rounds of %d, %d failed (fail_ratio %.4f), %d set-ups timed\n"
    w.name n p.rounds w.round_ops failed
    (ratio (float_of_int failed) (float_of_int n))
    (List.length p.setup_s);
  let raw = List.map (fun r -> r.wall) p.records in
  Printf.printf
    "  unscaled: setup %.6f s, op p50 %.4f ms, p90 %.4f ms; reference loop median %.4f ms over %d \
     samples\n"
    (median (List.map fst p.setup_s))
    (1e3 *. median raw) (1e3 *. pct 0.9 raw)
    (1e3 *. median !loops)
    !n_loops;
  report_leak p;
  print_metrics metrics;
  (n, failed, metrics)

let write_spans wname seed =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" wname seed) in
  let oc = open_out file in
  output_string oc "op\tid\tparent\tname\tstart_us\tend_us\tkwords\n";
  let origin = List.fold_left (fun acc (s : span) -> Float.min acc s.t0) infinity !spans in
  List.iter
    (fun (s : span) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\t%.3f\n" s.op s.id s.parent s.name
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. origin) *. 1e6)
        (s.words /. 1e3))
    (List.rev !spans);
  close_out oc;
  file

let traced w ~payloads ~seconds ~seed =
  let testbed_ms =
    List.init 25 (fun _ ->
        let t0 = now () in
        w.testbed ();
        (now () -. t0) *. 1e3)
  in
  (* untraced, through Nm.achieve: the intent history it leaves *)
  let plain = run_pass w ~payloads ~split:false ~seconds:(seconds /. 3.) in
  spans := [];
  let p = run_pass w ~payloads ~split:true ~seconds:(seconds *. 2. /. 3.) in
  let harvest_ms =
    List.init 5 (fun _ ->
        let t0 = now () in
        Nm.harvest_potentials p.last.nm p.last.scope;
        (now () -. t0) *. 1e3)
  in
  let records = plain.records @ p.records in
  let failed = report_failures w.name records in
  let tr = List.filter (fun r -> r.traced) p.records in
  let untr = List.filter (fun r -> not r.traced) p.records in
  let nops, layer = aggregate !spans in
  let op = layer "op" in
  let op_total = List.fold_left ( +. ) 0. (List.map (fun r -> r.wall) tr) in
  let share names =
    ratio
      (List.fold_left ( +. ) 0. (List.concat_map (fun n -> (layer n).self_ms) names) /. 1e3)
      op_total
  in
  let p50 name = median (layer name).self_ms in
  let kw name = mean (layer name).kwords in
  let tenth first =
    let cut = max 1 (w.round_ops / 10) in
    List.filter_map
      (fun r ->
        if (first && r.idx < cut) || ((not first) && r.idx >= w.round_ops - cut) then Some r.wall
        else None)
      plain.records
  in
  let candidates = per_op (fun r -> r.candidates) tr in
  let data = per_op (fun r -> r.c.data) tr and retx = per_op (fun r -> r.c.retransmits) tr in
  let metrics =
    [
      ("path_finder.find_ms", "ms", p50 "path_finder.find");
      ("path_finder.find_kwords", "kwords", kw "path_finder.find");
      ("path_finder.choose_ms", "ms", p50 "path_finder.choose");
      ("path_finder.choose_kwords", "kwords", kw "path_finder.choose");
      ("path_finder.candidates", "count", candidates);
      ("path_finder.useful_ratio", "ratio", ratio (if candidates > 0. then 1. else 0.) candidates);
      ("path_finder.op_share", "ratio", share [ "path_finder.find"; "path_finder.choose" ]);
      ("script_gen.generate_ms", "ms", p50 "script_gen.generate");
      ("script_gen.prims", "count", per_op (fun r -> r.prims) tr);
      ("nm.configure_ms", "ms", p50 "nm.configure");
      ("nm.configure_kwords", "kwords", kw "nm.configure");
      ("nm.teardown_ms", "ms", p50 "nm.teardown");
      ("nm.msgs_sent", "count", per_op (fun r -> r.c.sent) tr);
      ("nm.msgs_received", "count", per_op (fun r -> r.c.received) tr);
      ("wire.encode_us", "us", 1e3 *. p50 "wire.encode");
      ("wire.decode_us", "us", 1e3 *. p50 "wire.decode");
      ("wire.bytes", "bytes", per_op (fun r -> r.wire_bytes) tr);
      ("channel.frames", "count", per_op (fun r -> r.c.frames) tr);
      ("reliable.acks", "count", per_op (fun r -> r.c.acks) tr);
      ("reliable.retransmits", "count", retx);
      ("reliable.useful_ratio", "ratio", ratio data (data +. retx));
      ("admission.deferred", "count", per_op (fun r -> r.c.deferred) tr);
      ("admission.shed", "count", per_op (fun r -> r.c.shed) tr);
      ("admission.queue_high_water", "count", float_of_int p.queue_high_water);
      ("netsim.ping_ms", "ms", p50 "netsim.ping");
      ("netsim.testbed_ms", "ms", median testbed_ms);
      ("nm.harvest_ms", "ms", median harvest_ms);
      ("telemetry.scrape_ms", "ms", p50 "telemetry.scrape");
      ("telemetry.scrape_kwords", "kwords", kw "telemetry.scrape");
      ( "telemetry.answered_ratio",
        "ratio",
        (match p.last.kind with
        | Scrape _ ->
            ratio (per_op (fun r -> r.answered) tr) (float_of_int (List.length p.last.scope))
        | Goal _ -> 0.) );
      ("diagnose.anomalies_ms", "ms", p50 "diagnose.anomalies");
      ("nm.show_actual_ms", "ms", p50 "nm.show_actual");
      ("intent.history", "count", float_of_int plain.history);
      ("intent.drift_ratio", "ratio", ratio (median (tenth false)) (median (tenth true)));
      ( "trace.overhead_ratio",
        "ratio",
        ratio (median (List.map (fun r -> r.wall) tr)) (median (List.map (fun r -> r.wall) untr)) );
      ( "trace.unattributed_share",
        "ratio",
        ratio (List.fold_left ( +. ) 0. op.self_ms /. 1e3) op_total );
    ]
  in
  Printf.printf "%s traced: %d traced ops (%d untraced alongside), %d untraced ops before\n"
    w.name nops (List.length untr) (List.length plain.records);
  report_leak plain;
  Printf.printf "  %-22s %12s %9s %12s %9s\n" "layer" "self p50 ms" "op share" "kwords/op"
    "calls/op";
  let row ~share name =
    let l = layer name in
    if l.calls > 0 then
      Printf.printf "  %-22s %12.4f %9s %12.1f %9.2f\n" name (median l.self_ms) share
        (mean l.kwords)
        (float_of_int l.calls /. float_of_int nops)
  in
  let of_op name = row ~share:(Printf.sprintf "%.1f%%" (100. *. share [ name ])) name in
  List.iter of_op (layer_rows @ [ "op" ]);
  Printf.printf "  (op: time inside the op outside every layer span; wire: after the op)\n";
  List.iter (row ~share:"-") [ "wire.encode"; "wire.decode" ];
  print_metrics metrics;
  Printf.printf "  spans written to %s\n" (write_spans w.name seed);
  (List.length records, failed, metrics)

(* --- command line ------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " plan-chain10 | churn-vpn | scrape-vlan64 | all");
      ("--seed", Arg.Set_int seed, " seed of the ping payloads (default 1)");
      ("--seconds", Arg.Set_float seconds, " measured time per workload (default 10)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let chosen =
    match !workload with
    | "all" -> workloads
    | name -> (
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> [ w ]
        | None ->
            prerr_endline ("unknown workload " ^ name);
            exit 2)
  in
  let results =
    List.map
      (fun w ->
        let st = Random.State.make [| !seed |] in
        let bytes () =
          Bytes.init (16 + Random.State.int st 985) (fun _ -> Char.chr (Random.State.int st 256))
        in
        let payloads =
          Array.init w.round_ops (fun _ ->
              let there = bytes () in
              (there, bytes ()))
        in
        reference_signature := None;
        let n, failed, metrics =
          if !trace = 1 then traced w ~payloads ~seconds:!seconds ~seed:!seed
          else e2e w ~payloads ~seconds:!seconds
        in
        (w.name, n, failed, metrics))
      chosen
  in
  let attempted = List.fold_left (fun acc (_, n, _, _) -> acc + n) 0 results in
  let failed = List.fold_left (fun acc (_, _, f, _) -> acc + f) 0 results in
  let metrics =
    match results with
    | [ (_, _, _, m) ] -> m
    | _ ->
        List.concat_map
          (fun (w, _, _, m) -> List.map (fun (k, u, v) -> (w ^ "." ^ k, u, v)) m)
          results
  in
  print_endline (result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  exit (if failed = 0 then 0 else 1)

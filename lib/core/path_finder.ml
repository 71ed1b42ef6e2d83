(* The NM's path finder (§III-C.1): a depth-first traversal of the
   potential-connectivity graph that tracks encapsulation and
   decapsulation so only protocol-"sane" paths survive, and prunes paths
   that would peer IP modules from different address domains (figure 6).

   A path is the sequence of modules customer traffic crosses between the
   two customer-facing ETH modules of the goal. Customer traffic itself is
   modelled as two base headers (the customer's Ethernet frame and IP
   packet): [phy=>up] at the first module pops the base Ethernet header,
   and the final [up=>phy] at the target restores it. *)

type action = Push | Pop | Inspect

type visit = {
  v_mod : Ids.t;
  v_kind : Abstraction.switch_kind;
  v_action : action;
  v_chain : int; (* 0 = base ETH, 1 = base (customer) IP, >=2 pushed headers *)
}

type path = { visits : visit list }

type goal = {
  g_from : Ids.t; (* customer-facing ETH module at the source site *)
  g_to : Ids.t;
  g_customer : string; (* address domain of the customer, e.g. "C1" *)
  g_src_domain : string; (* e.g. "C1-S1" *)
  g_dst_domain : string;
  g_src_site : string; (* e.g. "S1" *)
  g_dst_site : string;
  g_tradeoffs : string list;
  g_scope : string list; (* device ids the NM manages *)
}

let base_eth = 0
let base_ip = 1

type entry = From_phy | From_above | From_below

(* a pushed header on the logical stack *)
type hdr = { h_chain : int; h_proto : string; h_domain : string option }

(* One module as the traversal sees it, built the first time the traversal
   reaches it and kept for the rest of the call: its abstraction, its
   domain, and the neighbours the traversal may enter — in scope, on an
   admitted device — resolved the first time the traversal leaves it. *)
type node = {
  n_id : Ids.t;
  n_abs : Abstraction.t;
  n_domain : string option;
  n_fast : int; (* 1 if the module advertises fast forwarding *)
  mutable n_on_path : bool;
  mutable n_adj : adjacency option;
}

and adjacency = { above : node list; below : node list; phys : node list }

module Index = Hashtbl.Make (Ids)

type search = {
  topo : Topology.t;
  goal : goal;
  prune_domains : bool;
  admit_dev : string -> bool;
  index : node Index.t;
  bound : int ref; (* branches whose pipe count exceeds it are dropped *)
  complete : visit list -> pipes:int -> fast:int -> unit; (* visits reversed *)
}

let in_scope s (m : Ids.t) = List.mem m.Ids.dev s.goal.g_scope

let node s m =
  match Index.find_opt s.index m with
  | Some n -> n
  | None ->
      let abs = Topology.find_module_exn s.topo m in
      let n =
        {
          n_id = m;
          n_abs = abs;
          n_domain = Topology.domain_of s.topo m;
          n_fast = (if abs.Abstraction.fast_forwarding then 1 else 0);
          n_on_path = false;
          n_adj = None;
        }
      in
      Index.add s.index m n;
      n

let adjacency s n =
  match n.n_adj with
  | Some a -> a
  | None ->
      let nodes =
        List.filter_map (fun (m : Ids.t) ->
            if in_scope s m && s.admit_dev m.Ids.dev then Some (node s m) else None)
      in
      let a =
        {
          above = nodes (Potential_graph.above s.topo n.n_id);
          below = nodes (Potential_graph.below s.topo n.n_id);
          phys =
            nodes
              (List.map
                 (fun (_, remote, _) -> remote)
                 (Potential_graph.phys_neighbours s.topo n.n_id));
        }
      in
      n.n_adj <- Some a;
      a

(* What the traversal sees as the outermost header. *)
let logical_top s stack ~eth_missing =
  match stack with
  | h :: _ -> h
  | [] ->
      if eth_missing then { h_chain = base_ip; h_proto = "IP"; h_domain = Some s.goal.g_customer }
      else { h_chain = base_eth; h_proto = "ETH"; h_domain = None }

let domain_compatible s n hdr =
  if (not s.prune_domains) || hdr.h_proto <> "IP" then true
  else
    match (hdr.h_domain, n.n_domain) with
    | Some a, Some b -> a = b
    | _ -> false (* IP modules without domain knowledge cannot be placed *)

(* A visit of this kind is followed by a physical hop, not by a pipe. *)
let physical_kind = function Abstraction.Up_phy | Abstraction.Phy_phy -> true | _ -> false

(* The depth-first traversal [find] and [best] share. It carries, for the
   path so far: the visits (reversed), the pushes made (a pushed header's
   chain id is [base_ip + 1 + pushes]), the pipes it will instantiate
   (counted when the visit that opens each pipe is emitted, a lower bound
   for every completion) and its fast-forwarding modules. *)
let rec step s n ~entry ~stack ~eth_missing ~pushes ~pipes ~fast ~acc =
  n.n_on_path <- true;
  let abs = n.n_abs in
  let fast = fast + n.n_fast in
  let emit kind action chain next =
    let pipes = if physical_kind kind then pipes else pipes + 1 in
    if pipes <= !(s.bound) then
      next ~pipes ({ v_mod = n.n_id; v_kind = kind; v_action = action; v_chain = chain } :: acc)
  in
  let go side entry ~stack ~eth_missing ~pushes ~pipes acc =
    List.iter
      (fun m ->
        if not m.n_on_path then step s m ~entry ~stack ~eth_missing ~pushes ~pipes ~fast ~acc)
      (side (adjacency s n))
  in
  let go_above = go (fun a -> a.above) From_below
  and go_below = go (fun a -> a.below) From_above
  and go_phys = go (fun a -> a.phys) From_phy in
  (* goal completion: at the target ETH module, entered from above, with
     all transit encapsulations undone — push the customer frame back out. *)
  if
    Ids.equal n.n_id s.goal.g_to && entry = From_above && stack = [] && eth_missing
    && Abstraction.can_switch abs Abstraction.Up_phy
  then
    s.complete
      ({ v_mod = n.n_id; v_kind = Abstraction.Up_phy; v_action = Push; v_chain = base_eth } :: acc)
      ~pipes ~fast
  else
    List.iter
      (fun kind ->
        match (kind, entry) with
        | Abstraction.Phy_up, From_phy -> (
            match stack with
            | h :: rest when h.h_proto = "ETH" ->
                emit kind Pop h.h_chain (go_above ~stack:rest ~eth_missing ~pushes)
            | _ :: _ -> ()
            | [] ->
                if not eth_missing then
                  (* popping the customer's own frame: path entry *)
                  emit kind Pop base_eth (go_above ~stack ~eth_missing:true ~pushes))
        | Abstraction.Phy_phy, From_phy ->
            let h = logical_top s stack ~eth_missing in
            if h.h_proto = "ETH" then
              emit kind Inspect h.h_chain (go_phys ~stack ~eth_missing ~pushes)
        | Abstraction.Down_up, From_below -> (
            match stack with
            | h :: rest when h.h_proto = abs.Abstraction.name && domain_compatible s n h ->
                emit kind Pop h.h_chain (go_above ~stack:rest ~eth_missing ~pushes)
            | _ -> () (* base headers are never terminated mid-path *))
        | Abstraction.Down_down, From_below ->
            let h = logical_top s stack ~eth_missing in
            if h.h_proto = abs.Abstraction.name && domain_compatible s n h then
              emit kind Inspect h.h_chain (go_below ~stack ~eth_missing ~pushes)
        | Abstraction.Up_down, From_above ->
            let h =
              {
                h_chain = base_ip + 1 + pushes;
                h_proto = abs.Abstraction.name;
                h_domain = n.n_domain;
              }
            in
            emit kind Push h.h_chain
              (go_below ~stack:(h :: stack) ~eth_missing ~pushes:(pushes + 1))
        | Abstraction.Up_phy, From_above ->
            let h = { h_chain = base_ip + 1 + pushes; h_proto = "ETH"; h_domain = None } in
            emit kind Push h.h_chain (go_phys ~stack:(h :: stack) ~eth_missing ~pushes:(pushes + 1))
        | Abstraction.Up_up, _ ->
            (* loopback switching creates no inter-device paths; skipped *)
            ()
        | ( ( Abstraction.Phy_up | Abstraction.Phy_phy | Abstraction.Down_up
            | Abstraction.Down_down | Abstraction.Up_down | Abstraction.Up_phy ),
            _ ) ->
            ())
      abs.Abstraction.switch;
  n.n_on_path <- false

let search ~prune_domains ~admit_dev ~bound ~complete topo goal =
  let s = { topo; goal; prune_domains; admit_dev; index = Index.create 64; bound; complete } in
  let root = node s goal.g_from in
  if admit_dev goal.g_from.Ids.dev then
    step s root ~entry:From_phy ~stack:[] ~eth_missing:false ~pushes:0 ~pipes:0 ~fast:0 ~acc:[]

(* The chooser's order on (pipes, fast modules): fewer pipes, then more
   fast-forwarding modules. *)
let better (pipes, fast) (pipes', fast') = pipes < pipes' || (pipes = pipes' && fast > fast')

(* [prune_domains:false] disables the figure-6(b) address-domain check —
   an ablation showing how many protocol-plausible but semantically invalid
   paths the pruning removes. *)
let find ?(prune_domains = true) topo goal =
  let found = ref [] in
  let complete acc ~pipes:_ ~fast:_ = found := { visits = List.rev acc } :: !found in
  search ~prune_domains ~admit_dev:(fun _ -> true) ~bound:(ref max_int) ~complete topo goal;
  List.rev !found

(* Branch and bound over the same traversal: a completion replaces the
   incumbent only with a strictly better key, so the first minimum in
   [find]'s order wins, and a branch is dropped once its pipe count alone
   exceeds the incumbent's (ties never prune: the fast-module tie-break is
   still open). *)
let best ?(admit_dev = fun _ -> true) ?(admit = fun _ -> true) topo goal =
  let incumbent = ref None in
  let bound = ref max_int in
  let complete acc ~pipes ~fast =
    let path = { visits = List.rev acc } in
    if admit path then
      match !incumbent with
      | Some (_, key) when not (better (pipes, fast) key) -> ()
      | _ ->
          incumbent := Some (path, (pipes, fast));
          bound := pipes
  in
  search ~prune_domains:true ~admit_dev ~bound ~complete topo goal;
  Option.map fst !incumbent

(* --- hierarchical two-step traversal (§III-C.3) -------------------------------

   The paper's scalability suggestion: "a hierarchical two-step traversal
   wherein the first step finds paths between devices that have been
   pre-established using a routing algorithm while the next step finds the
   complete module-level path given the device-level path". Step one is a
   BFS over physical connectivity; step two restricts the module-level DFS
   to the devices on that walk, so its cost no longer depends on the rest
   of the network. *)

let device_path topo goal =
  let neighbours dev =
    match Topology.device topo dev with
    | Some d ->
        List.filter_map
          (fun (_, peer, _) -> if List.mem peer goal.g_scope then Some peer else None)
          d.Topology.di_links
        |> List.sort_uniq compare
    | None -> []
  in
  let src = goal.g_from.Ids.dev and dst = goal.g_to.Ids.dev in
  let rec bfs frontier seen =
    match frontier with
    | [] -> None
    | (dev, acc) :: rest ->
        if dev = dst then Some (List.rev (dev :: acc))
        else
          let next =
            List.filter (fun p -> not (List.mem p seen)) (neighbours dev)
            |> List.map (fun p -> (p, dev :: acc))
          in
          bfs (rest @ next) (List.map fst next @ seen)
  in
  bfs [ (src, []) ] [ src ]

let find_hierarchical ?prune_domains topo goal =
  match device_path topo goal with
  | None -> []
  | Some devices ->
      (* restrict the module-level search to the chosen device walk *)
      find ?prune_domains topo { goal with g_scope = devices }

(* The paper's rendering: "a, g, l, h, b, c, i, d, e, j, n, k, f". *)
let signature path = String.concat ", " (List.map (fun v -> Ids.short v.v_mod) path.visits)

let pp ppf path = Fmt.string ppf (signature path)

(* Counts the up-down pipes a path would instantiate: the chooser's metric
   ("minimize the total number of pipes instantiated in the routers").
   Every visit but the last opens a pipe, unless a physical hop follows it. *)
let pipe_count path =
  let rec count = function
    | v :: (_ :: _ as rest) -> (if physical_kind v.v_kind then 0 else 1) + count rest
    | _ -> 0
  in
  count path.visits

(* Tie-break: paths through modules advertising fast forwarding win. *)
let fast_modules topo path =
  List.length
    (List.filter
       (fun v -> (Topology.find_module_exn topo v.v_mod).Abstraction.fast_forwarding)
       path.visits)

(* One pass: each path's key is computed once and the first minimum kept —
   the head of a stable sort on the same key. *)
let choose topo paths =
  List.fold_left
    (fun acc p ->
      let key = (pipe_count p, fast_modules topo p) in
      match acc with
      | Some (_, k) when not (better key k) -> acc
      | _ -> Some (p, key))
    None paths
  |> Option.map fst

(** The NM's path finder (§III-C.1).

    A depth-first traversal of the potential-connectivity graph that tracks
    encapsulation and decapsulation so only protocol-"sane" paths survive
    (figure 6(a)), and prunes paths that would peer IP modules from
    different address domains (figure 6(b)). On the figure-4 testbed it
    enumerates exactly the paper's nine paths. *)

(** What a module does to the traffic at its step of the path. *)
type action = Push | Pop | Inspect

type visit = {
  v_mod : Ids.t;
  v_kind : Abstraction.switch_kind; (** the switch rule this step needs *)
  v_action : action;
  v_chain : int;
      (** the header chain acted on: {!base_eth}, {!base_ip}, or a header
          pushed on this path, numbered [base_ip + 1 + k] for the path's
          [k]-th push. The ids depend on the path alone, so the same path
          compares equal with [=] whichever search returned it. *)
}

type path = { visits : visit list }

(** A high-level connectivity goal: connect two customer-facing ETH modules
    for traffic between two customer sites (§III-C). *)
type goal = {
  g_from : Ids.t; (** customer-facing ETH module at the source site *)
  g_to : Ids.t;
  g_customer : string; (** customer address domain, e.g. "C1" *)
  g_src_domain : string; (** e.g. "C1-S1" *)
  g_dst_domain : string;
  g_src_site : string; (** e.g. "S1" *)
  g_dst_site : string;
  g_tradeoffs : string list; (** performance trade-offs for tunnel pipes *)
  g_scope : string list; (** device ids the NM manages *)
}

val base_eth : int
(** Chain id of the customer's Ethernet frame (popped at entry, restored at
    the exit module). *)

val base_ip : int
(** Chain id of the customer's IP packet (inspected by the edge IP
    modules, never terminated mid-path). *)

val find : ?prune_domains:bool -> Topology.t -> goal -> path list
(** All protocol-sane paths, in depth-first order. [prune_domains:false]
    disables the figure-6(b) address-domain check (ablation). *)

val best :
  ?admit_dev:(string -> bool) -> ?admit:(path -> bool) -> Topology.t -> goal -> path option
(** The path {!choose} would pick among the admitted paths of {!find},
    without listing them: [best ~admit_dev ~admit topo goal] is
    [choose topo (List.filter admissible (find topo goal))], where a path is
    admissible when [admit_dev] accepts each of its devices and [admit]
    accepts the path.

    [best] runs {!find}'s traversal as a branch and bound: [admit_dev] is
    checked when the search enters a module, [admit] when a path completes,
    and a branch is dropped as soon as its pipe count exceeds the best
    admitted path's. Both predicates default to accepting everything. *)

val find_hierarchical : ?prune_domains:bool -> Topology.t -> goal -> path list
(** The paper's scalability suggestion (§III-C.3): find a device-level walk
    first (BFS over physical links), then the module-level paths restricted
    to it. *)

val signature : path -> string
(** The paper's rendering: ["a, g, l, h, b, c, i, d, e, j, n, k, f"]. *)

val pp : path Fmt.t

val pipe_count : path -> int
(** Up-down pipes the path would instantiate — the chooser's metric. *)

val fast_modules : Topology.t -> path -> int
(** How many modules along the path advertise fast forwarding. *)

val choose : Topology.t -> path list -> path option
(** Minimise {!pipe_count}, tie-break on {!fast_modules} — the rule that
    makes the NM pick the MPLS path, as in the paper. Among equal keys the
    first path in the list wins. *)

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
  v_chain : int; (** the header chain acted on; see {!base_eth}/{!base_ip} *)
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
(** All protocol-sane paths. [prune_domains:false] disables the
    figure-6(b) address-domain check (ablation). *)

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
    makes the NM pick the MPLS path, as in the paper. *)

(** The management agent (MA) of a device (§II).

    Announces physical connectivity, answers showPotential/showActual,
    executes script bundles by dispatching primitives to the local protocol
    modules, relays conveyMessage traffic between its modules and the NM,
    and switches allegiance on an [Nm_takeover].

    Leadership is epoch-fenced: the agent tracks the epoch of the NM in
    charge and drops frames fenced with a lower epoch, so a resurrected or
    partitioned old primary cannot steal the agent back or issue conflicting
    configuration (split-brain fencing). Unfenced frames are epoch 0, the
    single-NM legacy mode. *)

type t

val create : chan:Mgmt.Channel.t -> nm_device:string -> Netsim.Device.t -> t
(** Creates the agent and subscribes it to the management channel under its
    device's id. [nm_device] is the NM's initial station id. *)

val register : t -> Module_impl.t -> unit
(** Adds a protocol module to the device. *)

val env : t -> Module_impl.env
(** The environment handed to protocol modules: conveyMessage uplink,
    local listFieldsAndValues, annex knowledge, scheduling. *)

val announce : t -> Netsim.Net.t -> unit
(** Sends the Hello with the device's physical connectivity (§II-D). *)

val modules : t -> Module_impl.t list

val handle : t -> src:string -> bytes -> unit
(** The channel receive handler (exposed for tests). *)

val find_module : t -> Ids.t -> Module_impl.t option

(** {2 Leadership fencing} *)

val nm_device : t -> string
(** Station id of the NM the agent currently obeys. *)

val nm_epoch : t -> int
(** Leadership epoch of the NM in charge; 0 until a fenced leader appears. *)

(** {2 Tracing and metrics (see {!Obs})} *)

val set_obs : t -> Obs.Trace.t -> unit
(** Attaches a span collector — share the domain NM's so agent-side exec
    spans land in the same goal tree. A traced bundle's fresh execution
    opens an [exec:<device>] child span; a retry answered from the reply
    cache adds a [replayed-from-cache] event to the requesting span
    instead (never a second span). Replies, and any triggers or conveys
    the execution provokes, carry the goal context back on the wire. *)

val obs_counters : t -> (string * int) list
(** The agent's drop counters in registry-source form:
    - [fenced_rejects]: frames dropped for carrying a lower epoch than
      {!nm_epoch};
    - [takeover_rejects]: takeover announcements dropped for not being
      strictly newer;
    - [malformed_drops]: undecodable frames dropped instead of raising out
      of the channel handler (corruption, fuzzing, buggy peers). *)

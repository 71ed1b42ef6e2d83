(** Deterministic, seeded fault injection for the management channel.

    [wrap] interposes on any {!Channel.t} and applies a configurable fault
    model: per-link frame loss, duplication, delivery jitter, device
    crash/restart and management-plane partition. All randomness is drawn
    from a private splitmix64 stream, so a fixed [seed] (together with the
    deterministic {!Netsim.Event_queue}) reproduces the exact same faults
    on every run. *)

(** The splitmix64 stream the fault model draws from, exposed so other
    seeded components (e.g. the chaos schedule generator in [lib/chaos])
    derive all their randomness from the same PRNG family. *)
module Prng : sig
  type t

  val create : int -> t
  val next_u64 : t -> int64

  val uniform : t -> float
  (** Uniform float in [\[0, 1)]. *)

  val below : t -> int -> int
  (** [below t n] is a uniform int in [\[0, n)]. Raises [Invalid_argument]
      if [n <= 0]. *)
end

type t

val wrap : ?seed:int -> eq:Netsim.Event_queue.t -> Channel.t -> Channel.t * t
(** [wrap ?seed ~eq chan] returns a channel with the fault model applied
    on top of [chan] (sharing its stats record) and the handle used to
    steer the faults. Default [seed] is [0]. *)

val set_drop : t -> ?src:string -> ?dst:string -> float -> unit
(** [set_drop t p] sets the default drop probability for every frame;
    [set_drop t ~src ~dst p] overrides it for the directed link
    [src → dst]. Raises [Invalid_argument] if only one endpoint is
    given. *)

val set_duplicate : t -> float -> unit
(** Probability that a frame which survived the loss model is shipped a
    second time. *)

val set_jitter : t -> int64 -> unit
(** [set_jitter t ns] delays each delivery by a uniform random amount in
    [\[0, ns)] of virtual time, which reorders concurrent frames. [0L]
    (the default) disables jitter. *)

val crash : t -> string -> unit
(** [crash t id] makes device [id] deaf and mute on the management
    channel: frames to, from, or already in flight toward it are counted
    as [crash_drops]. Idempotent. *)

val restart : t -> string -> unit
(** Undoes {!crash}. The device's own volatile state is the business of
    {!Netsim.Device.crash}; this only restores channel connectivity. *)

val is_crashed : t -> string -> bool

val partition : t -> string -> unit
(** Like {!crash} but counted separately — models a management-plane
    partition (e.g. the primary NM cut off from the network) rather than
    a dead device. *)

val heal : t -> string -> unit
(** Undoes {!partition}. *)

val clear : t -> unit
(** Resets every knob (drop, duplication, jitter, crashes, partitions)
    to the fault-free default. Counters are preserved. *)

val obs_counters : t -> (string * int) list
(** The counters in registry-source form for [Obs.Registry.register]:
    - [dropped]: frames lost to the random loss model;
    - [duplicated]: frames shipped twice;
    - [delayed]: sends deferred by reordering jitter;
    - [crash_drops]: frames blocked by a crashed endpoint;
    - [partition_drops]: frames blocked by a partition. *)

val reset_counters : t -> unit
(** Zeroes every counter. [clear] deliberately preserves counters so a
    post-mortem can still read them; chaos episodes call this between
    runs to measure each episode independently. *)

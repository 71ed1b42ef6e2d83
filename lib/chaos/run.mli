(** The run core both chaos engines share: the verdict and report types,
    the fault-revert queue, the management-channel fault cases, the
    chaos-phase → forced-quiescence → tail loop and the trace-connected
    verdict. An engine ({!Engine} over the diamond, {!Fed_engine} over the
    two-domain federation) supplies only its deployment, its own events,
    its invariants and its stats. *)

type verdict = { name : string; ok : bool; detail : string }

type 'stats report = {
  verdicts : verdict list;  (** the engine's invariants, then [trace-connected] *)
  converged_tick : int option;  (** tail tick at which the deployment was healthy *)
  goal_trace : string;
      (** the first traced goal's rendered span tree, attached to every
          report so a violated invariant ships with its causal history *)
  orphan_spans : int;  (** across every traced goal — a lost context if nonzero *)
  total_spans : int;  (** spans across every traced goal *)
  phase_samples : (string * int list) list;
      (** raw per-phase latency samples so a soak can merge histograms
          across seeds before taking percentiles *)
  metrics_json : string;  (** the run's full {!Conman.Obs.Registry} dump *)
  stats : 'stats;  (** engine-specific accounting *)
}

val failures : _ report -> verdict list
(** The verdicts that did not hold. *)

val failed_names : _ report -> string list

val holds : _ report -> string -> bool
(** [holds r name]: the verdict called [name] is present and held. *)

val pp_verdict : verdict Fmt.t

type world = {
  faults : Mgmt.Faults.t;  (** the management channel's fault injector *)
  apply : until:(int -> (unit -> unit) -> unit) -> tick:int -> Schedule.fault -> unit;
      (** applies an engine-specific fault at [tick]; [until n undo]
          queues [undo] to run [n] ticks later (or at forced quiescence).
          The core applies [Mgmt_drop], [Mgmt_duplicate] and
          [Mgmt_jitter] itself. *)
  step : int -> unit;  (** one engine tick (chaos phase and tail alike) *)
  quiesce : unit -> unit;  (** engine-specific clean-up at forced quiescence *)
  healthy : unit -> bool;  (** checked after every tail tick *)
}

val drive : Schedule.t -> world -> int option
(** Runs the chaos phase (each tick: due reverts, then the events due at
    that tick, then [step]), forces quiescence (every pending revert,
    {!Mgmt.Faults.clear}, [quiesce]), then up to [tail] clean ticks until
    [healthy] holds. Returns the tail tick at which it did. *)

val partition : until:(int -> (unit -> unit) -> unit) -> Mgmt.Faults.t -> string -> string -> int -> unit
(** [partition ~until faults a b ticks] cuts the management channel both
    ways between stations [a] and [b] for [ticks] ticks. *)

val report :
  obs:Conman.Observe.t ->
  goals:int list ->
  converged:int option ->
  phase_keys:string list ->
  verdict list ->
  'stats ->
  'stats report
(** Assembles the report: appends the [trace-connected] verdict (every
    goal in [goals] has one root and no orphan span, and there is at
    least one), renders the first goal's tree and snapshots [phase_keys]
    and the registry. Call it last: it reads the final collectors. *)

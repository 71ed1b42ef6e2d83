(** The chaos engine: runs a {!Schedule.t} against a live diamond
    deployment managed by a primary/standby NM pair (see {!Conman.Ha}),
    forcing quiescence after the chaos phase, and checks the global
    invariants (convergence, bounded oscillation, counter conservation,
    journal-replay equivalence, at most one acting primary per epoch, no
    committed intent lost across failover, no liveness/mutation frame ever
    shed by admission control, convergence despite telemetry storms, no
    stale datapath state, connected goal traces). The chaos loop and the
    report come from {!Run}. Fully deterministic: same schedule, same
    report. *)

type ha_stats = {
  failovers : int;  (** promotions across both nodes *)
  detection_ticks : int option;
      (** ticks from the first leader crash to the first promotion after
          it; [None] when no crash occurred or none led to a promotion *)
  replayed : int;  (** unconfirmed requests replayed on promotion *)
  split_brain_count : int;
      (** ticks on which two alive nodes acted as primary under the same
          epoch — the fencing invariant requires 0 *)
  lost_intents : int;
      (** intents committed in either journal, never retired, yet missing
          at the final leader — must be 0 *)
  final_epoch : int;
}

type overload_stats = {
  storm_frames : int;
      (** telemetry-storm frames injected by {!Schedule.Overload} events *)
  p0_shed : int;  (** shed+expired heartbeat-class frames — must be 0 *)
  p1_shed : int;  (** shed+expired script-class frames — must be 0 *)
  p2_shed : int;
  p3_shed : int;
  p3_expired : int;
  p3_queue_high_water : int;
  telemetry_final_period_ns : int64;
      (** the acting leader's scrape period at the end of the run — above
          base when shed feedback backed it off and it has not yet decayed *)
  telemetry_backoffs : int;
      (** scrape-period doublings in response to shed feedback *)
}

type stats = {
  total_repairs : int;  (** successful reroutes across NM incarnations *)
  nm_crashes : int;
  mgmt_counters : string;  (** rendered management fault counters *)
  trace : string list;  (** monitor event log, across NM incarnations *)
  ha : ha_stats;
  overload : overload_stats;
}

type report = stats Run.report
(** The report's [goal_trace] is the initial achieve's span tree; its
    [phase_samples] hold [ha.failover_detect_ticks]. *)

val run : ?oscillation_bound:int -> Schedule.t -> report
(** [oscillation_bound] is the max successful reroutes per intent; by
    default it is derived from the schedule size. [0] is the deliberately
    weakened invariant used to demonstrate the shrinker. *)

val pp_report : report Fmt.t

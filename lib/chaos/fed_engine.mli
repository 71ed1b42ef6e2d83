(** Chaos over the federated two-domain deployment
    ({!Federation.Fed_scenarios.build_two_domain}): seeded schedules that
    always include a [Peer_nm_crash] and an [Inter_domain_partition]
    alongside background channel faults, checked against the federation
    invariants — the cross-domain goal converges, no stitched pipe is
    left half-configured after a back-out, neither NM writes configuration
    outside its own domain, and the converged configuration is exactly
    the single-NM one. The chaos loop and the report come from {!Run}.
    Fully deterministic: same schedule, same report. *)

type stats = {
  replans : int;  (** coordinator planning rounds restarted *)
  backouts : int;  (** distributed back-outs driven *)
  relays : int;  (** cross-domain conveyMessages relayed, both nodes *)
  foreign_writes : int;  (** state-changing requests across a boundary — must be 0 *)
  half_configured : int;
      (** devices neither pristine nor fully configured at the end — must be 0 *)
  commits_received : int;
  aborts_received : int;
}

type report = stats Run.report
(** The report's [goal_trace] is the cross-domain goal's span tree; its
    [phase_samples] hold [fed.plan_ticks], [fed.commit_ticks] and
    [fed.abort_ticks]. *)

val generate : ?intensity:float -> seed:int -> ticks:int -> unit -> Schedule.t
(** Derives a two-domain schedule deterministically from [seed]. Both
    federation events are forced into every schedule; [intensity] scales
    the background channel-fault count (default 0.5 events/tick). The
    background menu is channel-level only, so convergence failures are
    attributable to the inter-NM protocol. *)

val run : Schedule.t -> report
(** Runs one schedule against a fresh two-domain chain deployment with
    the cross-domain goal submitted at the west NM, then checks the four
    federation invariants and trace connectivity. Diamond-only events in
    a replayed schedule are skipped. *)

(** The soak driver every chaos command and bench soak shares: runs a list
    of schedules through an engine and turns each failed run into a
    minimized, replayable repro file. *)

val run :
  ?out:string ->
  ?show:(int -> Schedule.t -> 'a Run.report -> unit) ->
  prefix:string ->
  replay:string ->
  (Schedule.t -> 'a Run.report) ->
  Schedule.t list ->
  'a Run.report list
(** [run ~prefix ~replay engine scheds] runs each schedule in order and
    calls [show i sched report] right after the [i]th run. On a violation
    it shrinks the schedule with {!Shrink.minimize} while one of the
    originally violated invariants still fails, writes the minimized
    schedule to [out] (default [<prefix>_repro_seed<N>.sexp]) and prints
    it with the command that replays it ([<replay> --replay FILE]).
    Returns the reports in schedule order. *)

val ok : _ Run.report list -> bool
(** Every invariant held in every report. *)

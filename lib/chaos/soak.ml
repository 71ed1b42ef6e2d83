(* The soak driver: run, report, and on a violation shrink to a repro.
   The shrink oracle is "one of the invariants that failed originally
   still fails", so a minimized repro reproduces the same bug rather than
   whatever violation a smaller schedule happens to provoke. *)

let write_repro ?out ~prefix ~replay engine (sched : Schedule.t) failed =
  Fmt.pr "  shrinking the failure...@.";
  let failing s = List.exists (fun n -> List.mem n failed) (Run.failed_names (engine s)) in
  let { Shrink.minimized; runs } = Shrink.minimize ~failing sched in
  let path =
    match out with
    | Some p -> p
    | None -> Printf.sprintf "%s_repro_seed%d.sexp" prefix sched.Schedule.seed
  in
  let oc = open_out path in
  output_string oc (Schedule.to_string minimized ^ "\n");
  close_out oc;
  Fmt.pr "  minimized to %d event(s) in %d runs:@." (List.length minimized.Schedule.events) runs;
  Fmt.pr "%a" Schedule.pp minimized;
  Fmt.pr "  repro written to %s (re-run with: %s --replay %s)@." path replay path

let run ?out ?(show = fun _ _ _ -> ()) ~prefix ~replay engine scheds =
  List.mapi
    (fun i sched ->
      let r = engine sched in
      show i sched r;
      (match Run.failed_names r with [] -> () | failed -> write_repro ?out ~prefix ~replay engine sched failed);
      r)
    scheds

let ok reports = List.for_all (fun r -> Run.failures r = []) reports

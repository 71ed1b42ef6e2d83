(* Cmdliner terms shared by the soak-style subcommands (chaos, ha,
   overload, federation). Each knob is a constructor rather than a value
   because defaults and docs differ per command; the flag names and
   docvars stay uniform so `conman X --seed/--ticks/--quick/--intensity`
   means the same thing everywhere. *)

open Cmdliner

let seed ?(default = 1) ~doc () = Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

let seed_opt ~doc () = Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)

let seeds ~default ~doc () =
  Arg.(value & opt (list int) default & info [ "seeds" ] ~docv:"NS" ~doc)

let seeds_opt ~doc () =
  Arg.(value & opt (some (list int)) None & info [ "seeds" ] ~docv:"NS" ~doc)

let ticks ~doc () = Arg.(value & opt (some int) None & info [ "ticks" ] ~docv:"T" ~doc)

let intensity ~default ~doc () =
  Arg.(value & opt float default & info [ "intensity" ] ~docv:"F" ~doc)

let quick ?(doc = "Quick mode: shorter schedules (CI smoke).") () =
  Arg.(value & flag & info [ "quick" ] ~doc)

let replay ~doc () = Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE" ~doc)

let out ~doc () = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  String.trim contents

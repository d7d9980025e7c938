(* All scheduler and experiment timings go through this one helper so
   the whole tree agrees on what a second is. [Sys.time] is process CPU
   time: it keeps counting on every running domain, so under a parallel
   campaign it over-reports wall time roughly by the job count (and it
   was what the schedulers used before the domain pool existed). *)

let wall_s () = Unix.gettimeofday ()

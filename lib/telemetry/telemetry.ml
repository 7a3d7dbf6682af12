(* Public face of the telemetry library.  [Core] holds the registry,
   tracing, clock and formatters (one compilation unit so the siblings
   below can share its internals); this module re-exports it together
   with the observatory layers built on top. *)

include Core
module Watchdog = Watchdog
module Sampler = Sampler
module Profiler = Profiler
module Journal = Journal
module Postmortem = Postmortem
module Obs = Obs

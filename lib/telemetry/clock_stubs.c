/* Wall-clock microseconds as an untagged native int: the watchdog
   stamps a heartbeat on every metered query, and an unboxed integer
   read lets that stamp allocate nothing (Unix.gettimeofday returns a
   boxed float). */

#include <time.h>
#include <caml/mlvalues.h>

intnat telemetry_wall_us(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_REALTIME, &ts);
  return (intnat)ts.tv_sec * 1000000 + (intnat)(ts.tv_nsec / 1000);
}

value telemetry_wall_us_byte(value unit)
{
  return Val_long(telemetry_wall_us(unit));
}

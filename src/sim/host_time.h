/// \file
/// Host CPU time of this process, for host-speed measurements.
///
/// The simulator is single-threaded, so process CPU time is the host work
/// a run did, without the time it spent descheduled on a shared machine.

#ifndef ROSEBUD_SIM_HOST_TIME_H
#define ROSEBUD_SIM_HOST_TIME_H

#include <ctime>

namespace rosebud::sim {

/// Seconds of CPU time this process has consumed so far.
inline double
host_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_HOST_TIME_H

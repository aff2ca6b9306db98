/// \file
/// Minimal leveled logging for the simulator.
///
/// Mirrors the gem5 convention: `fatal` for user/config errors (throws,
/// callers may catch), `panic` for internal invariant violations (aborts),
/// `warn`/`inform` for status. Debug logging compiles away unless enabled.

#ifndef ROSEBUD_SIM_LOG_H
#define ROSEBUD_SIM_LOG_H

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace rosebud::sim {

/// Thrown by fatal(); represents an unusable user configuration.
class FatalError : public std::runtime_error {
 public:
    explicit FatalError(const std::string& what) : std::runtime_error(what) {}
};

/// Global log verbosity. 0 = quiet, 1 = inform, 2 = debug.
int log_level();
void set_log_level(int level);

/// The simulation cannot continue due to a user error (bad config,
/// invalid arguments). Throws FatalError without printing: a caller that
/// expects the rejection stays quiet, and the uncaught boundary (e.g.
/// rosebud_cli's main) prints the diagnostic once.
[[noreturn]] void fatal(const std::string& msg);

/// Internal invariant violated — a simulator bug. Aborts.
[[noreturn]] void panic(const std::string& msg);

/// Something is off but the simulation can proceed.
void warn(const std::string& msg);

/// Status message for the user.
void inform(const std::string& msg);

/// Verbose per-event tracing; only emitted at log level >= 2.
void debug(const std::string& msg);

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_LOG_H

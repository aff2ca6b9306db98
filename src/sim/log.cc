#include "sim/log.h"

namespace rosebud::sim {

namespace {
int g_log_level = 0;
}  // namespace

int log_level() { return g_log_level; }
void set_log_level(int level) { g_log_level = level; }

void
fatal(const std::string& msg) {
    throw FatalError(msg);
}

void
panic(const std::string& msg) {
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
warn(const std::string& msg) {
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string& msg) {
    if (g_log_level >= 1) std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debug(const std::string& msg) {
    if (g_log_level >= 2) std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

}  // namespace rosebud::sim

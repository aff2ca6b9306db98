/// Benchmark self-tests: every tracing wrapper forwards (fingerprints of a
/// traced and an untraced repetition agree, and each wrapper saw calls),
/// metric names are well formed, and a scoreboard fed a corrupted oracle
/// blacklist reports failed operations instead of a pass.
///
/// Workloads run shortened (few epochs, small check pass) so the whole
/// suite takes seconds. Exit status 0 = all checks passed.

#include <cinttypes>
#include <cstdio>

#include "perfbench.h"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
}

Workload
shortened(const Workload& w) {
    Workload s = w;
    s.warmup = 2'000;
    s.epochs_per_rep = 4;
    s.check_packets = 200;
    return s;
}

void
wrappers_forward(const Workload& full) {
    const Workload w = shortened(full);
    RepResult plain = run_rep(w, kDefaultSeed, nullptr);
    Tracer tr;
    RepResult traced = run_rep(w, kDefaultSeed, &tr);
    std::string n = w.name;
    expect(plain.fingerprint == traced.fingerprint, n + ": traced fingerprint == untraced");
    expect(tr.gen.calls > 0, n + ": GenFn wrapper called");
    expect(tr.observer.calls > 0, n + ": packet observer called");
    if (w.pipeline != rosebud::oracle::Pipeline::kForwarder) {
        expect(tr.accel_tick.calls > 0 && tr.accel_mmio.calls > 0,
               n + ": accelerator decorator ticked and mapped");
    }
    if (w.obs == Obs::kHealth) expect(tr.health.calls > 0, n + ": health probe forwarded");
    if (w.obs == Obs::kTelemetry)
        expect(tr.telemetry.calls > 0, n + ": telemetry sink forwarded");
    if (w.pipeline == rosebud::oracle::Pipeline::kPigasusHwReorder)
        expect(tr.rx.calls > 0, n + ": host rx handler called");
    expect(!tr.spans().empty(), n + ": host spans recorded");
}

void
metric_names() {
    expect(valid_metric_name("sim.ff_cycle_frac") && valid_metric_name("setup_s") &&
               valid_metric_name("a-b_c.9"),
           "valid metric names accepted");
    expect(!valid_metric_name("") && !valid_metric_name("a b") &&
               !valid_metric_name("lat/us") && !valid_metric_name("p99%"),
           "malformed metric names rejected");
}

void
corrupted_oracle() {
    const Workload w = shortened(*find_workload("fw512_profile"));
    CheckResult good = run_check(w, kDefaultSeed);
    expect(good.offered > 0 && good.divergences == 0, "fw512_profile check pass is clean");

    // A blacklist from another seed: the oracle now forwards what the
    // device drops (and vice versa), which must count as failed operations.
    rosebud::sim::Rng rng(kDefaultSeed + 1);
    rosebud::net::Blacklist wrong = rosebud::net::Blacklist::synthesize(w.blacklist, rng);
    CheckResult bad = run_check(w, kDefaultSeed, &wrong);
    std::printf("     corrupted oracle: %" PRIu64 " of %" PRIu64 " packets diverged\n",
                bad.divergences, bad.offered);
    expect(bad.divergences > 0, "corrupted oracle blacklist counted as failed operations");
}

}  // namespace

int
main() {
    metric_names();
    for (const auto& w : workloads()) wrappers_forward(w);
    corrupted_oracle();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "PASSED", failures);
    return failures ? 1 : 0;
}

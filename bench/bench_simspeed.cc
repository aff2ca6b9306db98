/// Simulation-speed benchmark (host time, not simulated time).
///
/// Two execution modes of the same workloads:
///  * reference — predecode off, idle skipping off: the eager kernel, which
///    interprets every issued instruction and ticks every component every
///    cycle;
///  * tuned     — predecoded RV32 dispatch + quiescence skipping and timed
///    sleep (the defaults every experiment harness runs with).
///
/// Both must produce bit-identical architectural state: every run is
/// fingerprinted (System::state_fingerprint) and any divergence aborts the
/// benchmark — speed from a wrong simulation is meaningless. The headline
/// number is the tuned-vs-reference host-time speedup on the Figure 7
/// forwarding sweep, whose floor bench/check_regression.py gates. Host time
/// is process CPU time (sim/host_time.h).
///
/// Set ROSEBUD_BENCH_JSON=<dir> to export machine-readable rows.

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/firewall.h"
#include "accel/pigasus.h"
#include "bench_common.h"
#include "core/experiments.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "obs/health.h"
#include "sim/host_time.h"

using namespace rosebud;

namespace {

struct Mode {
    const char* name;
    exp::SimTuning tuning;
};

// "reference" is the eager kernel: interpretive decode on every issue and
// every component ticked every cycle (tuned must match it bit for bit).
const Mode kModes[] = {
    {"reference", {.predecode = false, .idle_skip = false}},
    {"tuned", {.predecode = true, .idle_skip = true}},
};

struct RunResult {
    double host_s = 0;
    uint64_t cycles = 0;
    uint64_t packets = 0;
    uint64_t fingerprint = 0;
};

enum class Pipeline { kForwarder, kFirewall, kPigasus };

/// One fixed workload run under explicit tuning; returns host time, the
/// simulated cycle count, delivered packets, and the state fingerprint.
/// When `health` is non-null, a HealthMonitor with that config rides along
/// for the whole run (attached before traffic, detached only after the
/// fingerprint is read) — this is how the <=5% production-health overhead
/// claim is measured.
RunResult
run_pipeline(Pipeline which, const exp::SimTuning& t,
             const obs::HealthConfig* health = nullptr,
             uint64_t run_cycles = 60'000) {
    double t0 = sim::host_cpu_seconds();

    SystemConfig cfg;
    cfg.rpu_count = 8;
    net::IdsRuleSet rules;
    net::Blacklist blacklist;
    sim::Rng rng(11);
    if (which == Pipeline::kPigasus) {
        rules = net::IdsRuleSet::synthesize(64, rng);
        cfg.lb_policy = lb::Policy::kRoundRobin;
        cfg.hw_reassembler = true;
    } else if (which == Pipeline::kFirewall) {
        blacklist = net::Blacklist::synthesize(512, rng);
    }
    System sys(cfg);

    sys.kernel().set_idle_skip(t.idle_skip);
    for (unsigned i = 0; i < sys.rpu_count(); ++i)
        sys.rpu(i).core().set_predecode(t.predecode);

    fwlib::Program fw;
    if (which == Pipeline::kPigasus) {
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::PigasusMatcher>(rules); });
        fw = fwlib::pigasus_hw_reorder();
    } else if (which == Pipeline::kFirewall) {
        sys.attach_accelerators(
            [&] { return std::make_unique<accel::FirewallMatcher>(blacklist); });
        fw = fwlib::firewall();
    } else {
        fw = fwlib::forwarder();
    }
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.host().set_rx_handler([](net::PacketPtr) {});
    sys.run_cycles(500);

    std::unique_ptr<obs::HealthMonitor> mon;
    if (health) {
        mon = std::make_unique<obs::HealthMonitor>(*health);
        mon->attach(sys);
    }

    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec spec;
        spec.packet_size = 512;
        spec.attack_fraction = which == Pipeline::kForwarder ? 0.0 : 0.05;
        spec.seed = 21 + port;
        auto gen = std::make_shared<net::TraceGenerator>(
            spec, which == Pipeline::kPigasus ? &rules : nullptr,
            which == Pipeline::kFirewall ? &blacklist : nullptr);
        sys.add_source({.port = port, .line_gbps = 100.0, .load = 0.7},
                       [gen]() { return gen->next(); });
    }
    sys.run_cycles(run_cycles);

    RunResult out;
    out.cycles = sys.kernel().now();
    out.packets = sys.sink(0).frames() + sys.sink(1).frames();
    // Fingerprint taken while the monitor is still attached: the health
    // layer must not perturb a single bit of architectural state.
    out.fingerprint = sys.state_fingerprint();
    out.host_s = sim::host_cpu_seconds() - t0;
    if (mon) {
        mon->flush_epoch();
        mon->detach();
    }
    return out;
}

const char*
pipeline_name(Pipeline p) {
    switch (p) {
        case Pipeline::kForwarder: return "forwarder";
        case Pipeline::kFirewall: return "firewall";
        default: return "pigasus";
    }
}

struct Fig7Sweep {
    double host_s[2] = {0, 0};                     ///< per kModes entry
    std::vector<exp::ForwardingPoint> points[2];  ///< per kModes entry
    uint64_t cycles = 0;                          ///< per mode
};

/// The Figure 7a forwarding sweep (16 RPUs, 2x100G, every packet size)
/// under both modes, interleaved point by point with the order alternating,
/// so slow host drift hits both modes alike. All simulated results are
/// returned for cross-mode equality checking.
Fig7Sweep
fig7_sweep() {
    Fig7Sweep out;
    unsigned k = 0;
    for (uint32_t size : exp::figure7_sizes()) {
        exp::ForwardingParams p;
        p.rpu_count = 16;
        p.size = size;
        p.ports = 2;
        for (unsigned i = 0; i < 2; ++i) {
            const unsigned m = (k + i) % 2;
            exp::set_sim_tuning(kModes[m].tuning);
            out.points[m].push_back(exp::run_forwarding(p));
            out.host_s[m] += exp::last_run_host_seconds();
        }
        out.cycles += 500 + p.warmup + p.window;
        ++k;
    }
    exp::set_sim_tuning({});
    return out;
}

}  // namespace

int
main() {
    bench::JsonResults json("simspeed");
    int failures = 0;

    bench::heading("Simulation speed: fixed workloads, 8 RPUs, 240k cycles");
    std::printf("%-10s %-10s %10s %14s %14s %18s\n", "workload", "mode", "host(s)",
                "Mcycles/s", "kpkts/s", "fingerprint");
    for (Pipeline w : {Pipeline::kForwarder, Pipeline::kFirewall, Pipeline::kPigasus}) {
        // Long runs + best-of-3: these per-mode rows feed the
        // perf-regression gate (bench/check_regression.py), which applies
        // a 10% tolerance — the timing floor has to be stable to a few
        // percent for that to hold on shared machines. The modes alternate
        // rep by rep so slow host drift hits both alike.
        const uint64_t kGateCycles = 240'000;
        RunResult best[2];
        for (int rep = 0; rep < 3; ++rep) {
            for (unsigned i = 0; i < 2; ++i) {
                const unsigned m = (rep + i) % 2;
                RunResult r = run_pipeline(w, kModes[m].tuning, nullptr, kGateCycles);
                if (rep == 0 || r.host_s < best[m].host_s) best[m] = r;
            }
        }
        const uint64_t ref_fp = best[0].fingerprint;
        const double ref_s = best[0].host_s;
        for (unsigned m = 0; m < 2; ++m) {
            const RunResult& r = best[m];
            const char* mode = kModes[m].name;
            bool match = r.fingerprint == ref_fp;
            std::printf("%-10s %-10s %10.3f %14.2f %14.1f   0x%016llx%s\n",
                        pipeline_name(w), mode, r.host_s,
                        double(r.cycles) / r.host_s / 1e6,
                        double(r.packets) / r.host_s / 1e3,
                        (unsigned long long)r.fingerprint, match ? "" : "  MISMATCH");
            json.row({{"workload", pipeline_name(w)},
                      {"mode", mode},
                      {"host_s", bench::num(r.host_s)},
                      {"cycles", std::to_string(r.cycles)},
                      {"packets", std::to_string(r.packets)},
                      {"cycles_per_s", bench::num(double(r.cycles) / r.host_s)},
                      {"packets_per_s", bench::num(double(r.packets) / r.host_s)},
                      {"speedup", bench::num(ref_s / r.host_s)},
                      {"fingerprint_match", match ? "yes" : "NO"}});
            if (!match) {
                std::fprintf(stderr,
                             "FATAL: %s/%s fingerprint diverges from reference\n",
                             pipeline_name(w), mode);
                ++failures;
            }
        }
    }

    bench::heading("Health-layer overhead: tuned mode, detached vs attached");
    {
        // Full production health config: flight recorder, watchdog, SLO
        // histograms, metrics registry — everything `rosebud_cli health`
        // attaches. Longer runs (240k cycles) plus best-of-3 on each side
        // keep host-timer noise well under the 5% threshold being gated.
        obs::HealthConfig hc;
        hc.slo = obs::parse_slo("latency_p99 <= 200us, drop_rate <= 0.05");
        const uint64_t kOverheadCycles = 480'000;
        std::printf("%-10s %12s %12s %10s %18s\n", "workload", "detached(s)",
                    "attached(s)", "overhead", "fingerprint");
        for (Pipeline w : {Pipeline::kForwarder, Pipeline::kPigasus}) {
            // Warm caches/allocator before timing anything.
            run_pipeline(w, kModes[1].tuning, nullptr, kOverheadCycles);
            // Host clocks on shared machines drift (frequency scaling,
            // co-tenancy), so absolute best-of-N is unstable. Instead run
            // detached/attached back-to-back in pairs — drift within a pair
            // is negligible — and take the median of the per-pair ratios,
            // which is robust to a few noise-contaminated pairs.
            RunResult det, att;
            std::vector<double> ratios;
            for (int rep = 0; rep < 7; ++rep) {
                // Alternate order each rep to cancel any ordering bias.
                RunResult a, d;
                if (rep % 2 == 0) {
                    d = run_pipeline(w, kModes[1].tuning, nullptr, kOverheadCycles);
                    a = run_pipeline(w, kModes[1].tuning, &hc, kOverheadCycles);
                } else {
                    a = run_pipeline(w, kModes[1].tuning, &hc, kOverheadCycles);
                    d = run_pipeline(w, kModes[1].tuning, nullptr, kOverheadCycles);
                }
                ratios.push_back(a.host_s / d.host_s);
                det = d;
                att = a;
            }
            std::sort(ratios.begin(), ratios.end());
            double overhead = ratios[ratios.size() / 2] - 1.0;
            bool match = att.fingerprint == det.fingerprint;
            std::printf("%-10s %12.3f %12.3f %+9.1f%%   %s%s\n",
                        pipeline_name(w), det.host_s, att.host_s,
                        overhead * 100.0, match ? "identical" : "MISMATCH",
                        overhead > 0.05 ? "  (over 5% target)" : "");
            json.row({{"workload", pipeline_name(w)},
                      {"mode", "tuned+health"},
                      {"host_s", bench::num(att.host_s)},
                      {"detached_s", bench::num(det.host_s)},
                      {"health_overhead", bench::num(overhead)},
                      {"cycles", std::to_string(att.cycles)},
                      {"packets", std::to_string(att.packets)},
                      {"fingerprint_match", match ? "yes" : "NO"}});
            if (!match) {
                std::fprintf(stderr,
                             "FATAL: %s health-attached fingerprint diverges\n",
                             pipeline_name(w));
                ++failures;
            }
            // Hard-fail only at 2x the target: shared runners jitter a few
            // percent even with paired medians, and the JSON row is the
            // precise record the regression gate diffs against baselines.
            if (overhead > 0.10) {
                std::fprintf(stderr,
                             "FATAL: %s health overhead %.1f%% exceeds 5%% "
                             "target by more than 2x\n",
                             pipeline_name(w), overhead * 100.0);
                ++failures;
            }
        }
    }

    bench::heading("Figure 7a forwarding sweep: reference vs tuned host time");
    const Fig7Sweep sweep = fig7_sweep();
    const auto& ref_pts = sweep.points[0];
    const auto& tuned_pts = sweep.points[1];
    const double ref_s = sweep.host_s[0];
    const double tuned_s = sweep.host_s[1];
    bool diverged = false;
    for (size_t i = 0; i < ref_pts.size(); ++i) {
        // Exactness gate: the speedups must not change a single result.
        if (ref_pts[i].achieved_gbps != tuned_pts[i].achieved_gbps ||
            ref_pts[i].achieved_mpps != tuned_pts[i].achieved_mpps) {
            std::fprintf(stderr, "FATAL: tuned sweep diverges at size %u\n",
                         ref_pts[i].size);
            diverged = true;
            ++failures;
        }
    }
    double speedup = ref_s / tuned_s;
    std::printf("reference: %.2f s   tuned: %.2f s   speedup: %.2fx   results: %s\n",
                ref_s, tuned_s, speedup, diverged ? "DIVERGED" : "identical");
    json.row({{"workload", "fig7_sweep"},
              {"reference_s", bench::num(ref_s)},
              {"tuned_s", bench::num(tuned_s)},
              {"cycles", std::to_string(sweep.cycles)},
              {"speedup", bench::num(speedup)}});

    return failures == 0 ? 0 : 1;
}

/// perfbench: run one workload of the repository benchmark and print every
/// metric by name and unit, then one JSON result line.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--spans <path>]
///   perfbench --workload <name> --seed <n> --setup-only
///
/// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
/// and traced repetitions and prints the per-layer metrics plus
/// trace.overhead. Exit status is 0 only when the oracle check pass has no
/// divergence and every repetition produced the same state fingerprint.
/// --setup-only runs one set-up and prints its phase times on one line: the
/// benchmark starts itself that way to time set-up in a fresh process.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench.h"

using namespace perfbench;

extern char** environ;

namespace {

/// Set-ups timed beside every repetition, each in a fresh child process.
constexpr int kSetupsPerRep = 4;
/// Simulation speed is a median over blocks of this many epochs: long
/// enough to span every periodic obs-layer epoch, short enough to give a
/// run over a hundred samples.
constexpr size_t kBlockEpochs = 8;

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

double
median(std::vector<double> v) {
    return quantile(v, 0.5);
}

double
peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

double
frac(double num, double den) {
    return den > 0 ? num / den : 0.0;
}

void
usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans <path>]\n"
                 "       perfbench --workload <name> --seed <n> --setup-only\nworkloads:");
    for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
}

bool
write_spans(const std::string& path, const Tracer& t) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const auto& spans = t.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        long long parent = s.parent == UINT32_MAX ? -1 : (long long)s.parent;
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"start_ns\":%" PRIu64
                     ",\"end_ns\":%" PRIu64 "}\n",
                     i, s.name, parent, s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
}

/// Times one set-up of `w` in a fresh process (this program, started with
/// --setup-only) and appends it to `out`. The first set-up in a fresh process
/// is what a user's set-up costs: later ones in the same process reuse the
/// heap and take a third of the time, or not, as the allocator's state
/// decides. The child inherits the current CPU of the rotation.
bool
spawn_setup(const char* self, const Workload& w, uint64_t seed, std::vector<SetupTimes>& out) {
    int fds[2];
    if (pipe(fds) != 0) return false;
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::string args[] = {self, "--workload", w.name, "--seed", std::to_string(seed),
                          "--setup-only"};
    char* argv[7];
    for (int i = 0; i < 6; ++i) argv[i] = args[i].data();
    argv[6] = nullptr;
    pid_t pid = 0;
    const int rc = posix_spawnp(&pid, self, &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        return false;
    }
    FILE* f = fdopen(fds[0], "r");
    SetupTimes s;
    const bool got = f && std::fscanf(f, "%lf %lf %lf %lf %lf", &s.construct, &s.firmware,
                                      &s.boot, &s.first_step, &s.total) == 5;
    if (f) std::fclose(f);
    else close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
    out.push_back(s);
    return true;
}

/// Moves the process round-robin over the CPUs it may run on, one step per
/// repetition. On a shared host the CPUs differ in speed by 20% and more,
/// depending on what runs beside them; spreading the repetitions over all
/// of them keeps a run's median from depending on where it was placed.
class CpuRotation {
 public:
    CpuRotation() {
        CPU_ZERO(&orig_);
        if (sched_getaffinity(0, sizeof orig_, &orig_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &orig_)) cpus_.push_back(c);
    }
    ~CpuRotation() {
        if (!cpus_.empty()) sched_setaffinity(0, sizeof orig_, &orig_);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void next() {
        if (cpus_.size() < 2) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

 private:
    cpu_set_t orig_;
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/// Repetitions continue until `seconds` of wall time have passed, at least
/// `min_reps` ran and `min_epochs` were timed (1100 leave ten samples
/// beyond p99); a hard cap keeps every run well inside the harness limit.
bool
keep_going(double t0, double seconds, size_t reps, size_t min_reps, size_t epochs,
           size_t min_epochs) {
    double elapsed = double(steady_ns()) * 1e-9 - t0;
    if (elapsed > 150.0) return false;
    return elapsed < seconds || reps < min_reps || epochs < min_epochs;
}

}  // namespace

int
main(int argc, char** argv) {
    std::string name, spans_path;
    uint64_t seed = kDefaultSeed;
    double seconds = 20;
    int trace = 0;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--setup-only") {
            setup_only = true;
            continue;
        }
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!v) {
            usage();
            return 2;
        }
        if (a == "--workload") name = v;
        else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds") seconds = std::atof(v);
        else if (a == "--trace") trace = std::atoi(v);
        else if (a == "--spans") spans_path = v;
        else {
            usage();
            return 2;
        }
        ++i;
    }
    const Workload* w = find_workload(name);
    if (!w || seconds <= 0 || (trace != 0 && trace != 1)) {
        usage();
        return 2;
    }
    if (setup_only) {
        SetupTimes s = Bench(*w, seed, nullptr).setup();
        std::printf("%.9e %.9e %.9e %.9e %.9e\n", s.construct, s.firmware, s.boot,
                    s.first_step, s.total);
        return 0;
    }
    std::printf("workload=%s seed=%" PRIu64 " seconds=%g trace=%d (held-out seed %" PRIu64
                ")\n",
                w->name, seed, seconds, trace, kHeldOutSeed);

    Calibration cal;
    CheckResult check = run_check(*w, seed);
    std::printf("oracle check: %" PRIu64 " packets offered, %" PRIu64 " divergences\n",
                check.offered, check.divergences);
    if (check.divergences) std::printf("%s\n", check.report.c_str());
    bool correct = check.divergences == 0 && check.offered > 0;

    std::vector<RepResult> plain, traced;
    std::vector<SetupTimes> setups;
    Tracer tr;  // accumulates over every traced window

    // Each untraced repetition runs on the next CPU, after kSetupsPerRep
    // set-ups in child processes and one calibration measurement, so that
    // set-up time and the calibration sample the same host phases as the
    // repetitions. Its slowdown scales that repetition's host times to the
    // nominal host: block rates by the slowdown, epoch and set-up times,
    // which the host's phases move less, by its square root.
    CpuRotation rotation;
    std::vector<double> slow;

    const double t0 = double(steady_ns()) * 1e-9;
    size_t epochs = 0;
    while (keep_going(t0, seconds, plain.size(), trace ? 2 : 3, epochs, trace ? 0 : 1100)) {
        rotation.next();
        for (int i = 0; i < kSetupsPerRep; ++i) {
            if (!spawn_setup(argv[0], *w, seed, setups)) {
                std::printf("set-up child process failed\n");
                return 1;
            }
        }
        slow.push_back(cal.slowdown());
        plain.push_back(run_rep(*w, seed, nullptr));
        epochs += plain.back().epoch_cpu_s.size();
        if (!trace) continue;
        rotation.next();
        traced.push_back(run_rep(*w, seed, &tr));
    }

    if (plain.empty()) {
        std::printf("no repetition finished within the time cap\n");
        return 1;
    }
    const uint64_t fp = plain.front().fingerprint;
    bool same_fp = true;
    for (const auto& r : plain) same_fp &= r.fingerprint == fp;
    for (const auto& r : traced) same_fp &= r.fingerprint == fp;
    std::printf("fingerprint=0x%016" PRIx64 " over %zu untraced + %zu traced repetitions: %s\n",
                fp, plain.size(), traced.size(), same_fp ? "identical" : "DIFFERENT");
    correct &= same_fp;

    std::vector<double> setup, setup_scaled, construct, firmware, boot, first_step;
    std::vector<double> cpu, rate, rate_scaled, epoch_ms, epoch_ms_scaled;
    for (size_t k = 0; k < setups.size(); ++k) {
        const SetupTimes& s = setups[k];
        setup.push_back(s.total);
        setup_scaled.push_back(s.total / std::sqrt(slow[k / kSetupsPerRep]));
        construct.push_back(s.construct);
        firmware.push_back(s.firmware);
        boot.push_back(s.boot);
        first_step.push_back(s.first_step);
    }
    for (size_t k = 0; k < plain.size(); ++k) {
        const RepResult& r = plain[k];
        cpu.push_back(r.window_cpu_s);
        double block = 0;
        for (size_t i = 0; i < r.epoch_cpu_s.size(); ++i) {
            epoch_ms.push_back(r.epoch_cpu_s[i] * 1e3);
            epoch_ms_scaled.push_back(epoch_ms.back() / std::sqrt(slow[k]));
            block += r.epoch_cpu_s[i];
            if ((i + 1) % kBlockEpochs == 0) {
                rate.push_back(double(w->epoch * kBlockEpochs) / block / 1e6);
                rate_scaled.push_back(rate.back() * slow[k]);
                block = 0;
            }
        }
    }
    const RepResult& r0 = plain.front();
    std::vector<Metric> m;
    if (!trace) {
        const size_t n = epoch_ms_scaled.size();
        const double p99 = quantile(epoch_ms_scaled, 0.99);
        size_t beyond = 0;
        for (double e : epoch_ms_scaled) beyond += e > p99;
        std::printf("epochs: %zu of %" PRIu64 " cycles, %zu beyond p99\n", n, w->epoch,
                    beyond);
        std::printf("unscaled sim_mcycles_per_s %.6g, epoch_ms_p99 %.6g, setup_s %.6g over %zu "
                    "set-ups; median host slowdown %.4g over %zu passes\n",
                    median(rate), quantile(epoch_ms, 0.99), median(setup), setup.size(),
                    median(slow), slow.size());
        m = {
            {"sim_mcycles_per_s", median(rate_scaled), "Mcycles/s"},
            {"epoch_ms_p99", p99, "ms"},
            {"setup_s", median(setup_scaled), "s"},
            {"peak_rss_mb", peak_rss_mb() - double(Calibration::kBytes) / (1 << 20), "MB"},
            {"dut_gbps", r0.dut_gbps, "Gbps"},
            {"dut_latency_p50_cycles", r0.lat_p50_cycles, "cycles"},
            {"dut_latency_p99_cycles", r0.lat_p99_cycles, "cycles"},
            {"dut_accept_frac", 1.0 - frac(double(r0.dropped), double(r0.offered)), "frac"},
        };
        std::printf("dut_drop_frac %.6g (MAC refusals %" PRIu64 " of %" PRIu64 " offered)\n",
                    frac(double(r0.dropped), double(r0.offered)), r0.dropped, r0.offered);
    } else {
        // Counts are per window: the traced repetitions are identical, so
        // the totals divide exactly. Fractions pool every traced window.
        const RepResult& t = traced.back();
        PacketSpans ps = tr.packet_spans();
        const double reps = double(traced.size());
        double window_ns = 0;
        std::vector<double> tcpu;
        for (const auto& r : traced) {
            tcpu.push_back(r.window_cpu_s);
            window_ns += double(r.window_ns);
        }
        auto c = [&](const char* k) {
            auto it = t.counters.find(k);
            return it == t.counters.end() ? 0.0 : double(it->second);
        };
        auto calls = [&](const CallTimer& ct) { return double(ct.calls) / reps; };
        auto share = [&](double ns) { return frac(ns, window_ns); };
        const double wc = double(t.window_cycles);
        m = {
            {"sim.ff_cycle_frac", frac(double(t.ff_cycles), wc), "frac"},
            {"sim.awake_frac", t.awake_frac, "frac"},
            {"sim.loop_self_frac", 1.0 - share(tr.callee_ns()), "frac"},
            {"net.gen_calls", calls(tr.gen), "count"},
            {"net.gen_ns_per_call", tr.gen.ns_per_call(), "ns"},
            {"net.gen_frac", share(tr.gen.est_ns()), "frac"},
            {"dist.rx_fifo_drops", c("dist.rx_fifo_drops"), "count"},
            {"dist.voq_stall", c("dist.voq_stall"), "count"},
            {"dist.ingress_cycles_p50", quantile(ps.ingress, 0.5), "cycles"},
            {"dist.ingress_cycles_p99", quantile(ps.ingress, 0.99), "cycles"},
            {"dist.egress_cycles_p50", quantile(ps.egress, 0.5), "cycles"},
            {"dist.egress_cycles_p99", quantile(ps.egress, 0.99), "cycles"},
            {"lb.assigned", c("lb.assigned"), "count"},
            {"lb.assign_stall", c("lb.assign_stall"), "count"},
            {"lb.reassembler_held", c("lb.reassembler_held"), "count"},
            {"lb.dispatch_cycles_p50", quantile(ps.dispatch, 0.5), "cycles"},
            {"lb.dispatch_cycles_p99", quantile(ps.dispatch, 0.99), "cycles"},
            {"rpu.rx_packets", c("rpu.rx_packets"), "count"},
            {"rpu.tx_stall_cycles", c("rpu.tx_stall_cycles"), "count"},
            {"rpu.dropped_packets", c("rpu.dropped_packets"), "count"},
            {"rpu.fw_cycles_p50", quantile(ps.fw, 0.5), "cycles"},
            {"rpu.fw_cycles_p99", quantile(ps.fw, 0.99), "cycles"},
            {"rv.instret", double(t.instret), "count"},
            {"rv.ipc", frac(double(t.instret), double(t.core_cycles)), "insn/cycle"},
            {"rv.minsn_per_s", frac(double(t.instret), median(cpu)) / 1e6, "Minsn/s"},
            {"accel.tick_calls", calls(tr.accel_tick), "count"},
            {"accel.ticks_per_pkt", frac(calls(tr.accel_tick), c("rpu.rx_packets")), "ticks/pkt"},
            {"accel.mmio_calls", calls(tr.accel_mmio), "count"},
            {"accel.tick_ns", tr.accel_tick.ns_per_call(), "ns"},
            {"accel.frac", share(tr.accel_tick.est_ns() + tr.accel_mmio.est_ns()), "frac"},
            {"accel.jobs", c("accel.jobs"), "count"},
            {"accel.matches", c("accel.matches"), "count"},
            {"obs.health_calls", calls(tr.health), "count"},
            {"obs.health_frac", share(tr.health.est_ns()), "frac"},
            {"obs.telemetry_events", calls(tr.telemetry), "count"},
            {"obs.telemetry_events_per_cycle", frac(calls(tr.telemetry), wc), "events/cycle"},
            {"obs.telemetry_ns_per_event", tr.telemetry.ns_per_call(), "ns"},
            {"obs.telemetry_frac", share(tr.telemetry.est_ns()), "frac"},
            {"host.rx_calls", calls(tr.rx), "count"},
            {"host.rx_frac", share(tr.rx.est_ns()), "frac"},
            {"setup.construct_s", median(construct), "s"},
            {"setup.firmware_load_s", median(firmware), "s"},
            {"setup.boot_s", median(boot), "s"},
            {"setup.first_step_s", median(first_step), "s"},
            {"trace.overhead", median(tcpu) / median(cpu), "ratio"},
        };
        std::printf("host spans: %zu kept, %" PRIu64 " dropped; packet spans: %zu fw\n",
                    tr.spans().size(), tr.spans_dropped(), ps.fw.size());
        if (!spans_path.empty()) {
            if (write_spans(spans_path, tr))
                std::printf("wrote %s\n", spans_path.c_str());
            else
                std::printf("cannot write %s\n", spans_path.c_str());
        }
    }

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    char buf[160];
    std::snprintf(buf, sizeof buf, ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                  check.offered ? check.offered : 1, check.divergences);
    json += buf;
    json += ", \"metrics\": {";
    for (size_t i = 0; i < m.size(); ++i) {
        double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
        std::printf("%-34s %.6g %s\n", m[i].name.c_str(), v, m[i].unit);
        if (!valid_metric_name(m[i].name)) {
            std::printf("invalid metric name %s\n", m[i].name.c_str());
            correct = false;
        }
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m[i].name.c_str(), v, m[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <numeric>

#include "accel/firewall.h"
#include "accel/pigasus.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "oracle/scoreboard.h"
#include "perfbench.h"

namespace perfbench {

using namespace rosebud;
using oracle::Pipeline;

// Epochs take about 15 ms and repetitions about 1 s of host time on a
// shared 4-core x86 host, so a 20 s run holds over 1100 epochs (p99 with at
// least ten samples beyond it) and about 150 8-epoch blocks.
const std::vector<Workload>&
workloads() {
    static const std::vector<Workload> kWorkloads = {
        {"fwd64_line",
         Pipeline::kForwarder, 16, 64, 1.0, 0.0, 0.0, 0.1, 0, 0, Obs::kNone,
         20'000, 6144, 64, 3000},
        {"ids1k_health",
         Pipeline::kPigasusHwReorder, 8, 1024, 1.0, 0.01, 0.003, 0.05, 64, 0, Obs::kHealth,
         20'000, 10240, 64, 1000},
        {"fwd256_idle",
         Pipeline::kForwarder, 16, 256, 0.005, 0.0, 0.0, 0.1, 0, 0, Obs::kNone,
         20'000, 131072, 64, 300},
        {"fw512_profile",
         Pipeline::kFirewall, 16, 512, 1.0, 0.01, 0.0, 0.2, 0, 1050, Obs::kTelemetry,
         8'000, 768, 64, 1000},
    };
    return kWorkloads;
}

const Workload*
find_workload(const std::string& name) {
    for (const auto& w : workloads())
        if (name == w.name) return &w;
    return nullptr;
}

double
cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    double idx = q * double(v.size() - 1);
    size_t lo = size_t(std::floor(idx));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = idx - double(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

Calibration::Calibration() : rmw_(kWords), chase_(kWords) {
    // One random cycle through every slot (Sattolo's algorithm), so each
    // load of the chase depends on the previous one.
    std::iota(chase_.begin(), chase_.end(), 0u);
    sim::Rng rng(1);
    for (size_t i = kWords - 1; i > 0; --i) std::swap(chase_[i], chase_[rng.next() % i]);
}

void
Calibration::pass() {
    for (int i = 0; i < 4'000'000; ++i) {
        x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
        rmw_[(x_ >> 40) & (kWords - 1)] += uint32_t(x_);
    }
    for (int i = 0; i < 200'000; ++i) at_ = chase_[at_];
}

double
Calibration::slowdown() {
    pass();
    const double t0 = cpu_s();
    pass();
    return (cpu_s() - t0) / kNominalS;
}

bool
valid_metric_name(const std::string& name) {
    if (name.empty()) return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == '.' || c == '-';
        if (!ok) return false;
    }
    return true;
}

namespace {

// Seed derivation: rules/blacklist from the seed itself, each port's traffic
// from a decorrelated stream.
uint64_t
traffic_seed(uint64_t seed, unsigned port) {
    return seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull * (port + 1);
}

}  // namespace

Bench::Bench(const Workload& w, uint64_t seed, Tracer* tracer)
    : w_(w), tracer_(tracer) {
    sim::Rng rng(seed);
    if (w.rules) rules_ = net::IdsRuleSet::synthesize(w.rules, rng);
    if (w.blacklist) blacklist_ = net::Blacklist::synthesize(w.blacklist, rng);

    const double t_start = cpu_s();
    uint32_t setup_span = tracer ? tracer->open("setup") : 0;
    auto phase = [&](const char* name, double& out, auto&& body) {
        uint32_t id = tracer ? tracer->open(name) : 0;
        double t0 = cpu_s();
        body();
        out = cpu_s() - t0;
        if (tracer) tracer->close(id);
    };

    fwlib::Program fw;
    phase("setup.construct", setup_.construct, [&] {
        SystemConfig cfg;
        cfg.rpu_count = w.rpus;
        cfg.hw_reassembler = w.pipeline == Pipeline::kPigasusHwReorder;
        sys_ = std::make_unique<System>(cfg);
        std::function<std::unique_ptr<rpu::Accelerator>()> make;
        switch (w.pipeline) {
        case Pipeline::kFirewall:
            make = [this] { return std::make_unique<accel::FirewallMatcher>(blacklist_); };
            fw = fwlib::firewall();
            break;
        case Pipeline::kPigasusHwReorder:
            make = [this] { return std::make_unique<accel::PigasusMatcher>(rules_); };
            fw = fwlib::pigasus_hw_reorder();
            break;
        default:
            fw = fwlib::forwarder();
            break;
        }
        if (make) {
            if (tracer)
                sys_->attach_accelerators([&] { return tracer->wrap_accel(make()); });
            else
                sys_->attach_accelerators(make);
        }
    });
    phase("setup.firmware_load", setup_.firmware,
          [&] { sys_->host().load_firmware_all(fw.image, fw.entry); });
    phase("setup.boot", setup_.boot, [&] { sys_->host().boot_all(); });
    phase("setup.first_step", setup_.first_step, [&] { sys_->run_cycles(500); });

    dist::Fabric::SinkFn rx = [](net::PacketPtr) {};
    sys_->host().set_rx_handler(tracer ? tracer->wrap_rx(rx) : rx);

    if (w.obs == Obs::kHealth) {
        obs::HealthConfig hc;
        hc.slo = obs::parse_slo("latency_p99 <= 200us, drop_rate <= 0.05");
        health_ = std::make_unique<obs::HealthMonitor>(hc);
        health_->attach(*sys_);
    } else if (w.obs == Obs::kTelemetry) {
        obs::Telemetry::Config tc;
        tc.epoch_cycles = 2048;
        tc.capture_vcd = true;
        telemetry_ = std::make_unique<obs::Telemetry>(tc);
        telemetry_->attach(*sys_);
    }
    if (tracer) {
        tracer->wrap_obs(*sys_);
        tracer->observe_packets(*sys_);
    }
    setup_.total = cpu_s() - t_start;
    if (tracer) tracer->close(setup_span);

    port1_delay_ = 1 + rng.next() % 1024;
    seed_ = seed;
}

void
Bench::start_traffic(uint64_t max_packets) {
    for (unsigned port = 0; port < 2; ++port) {
        if (port == 1) sys_->run_cycles(port1_delay_);
        net::TrafficSpec spec;
        spec.packet_size = w_.size;
        spec.attack_fraction = w_.attack;
        spec.reorder_fraction = w_.reorder;
        spec.udp_fraction = w_.udp;
        spec.seed = traffic_seed(seed_, port);
        auto gen = std::make_shared<net::TraceGenerator>(
            spec, w_.rules ? &rules_ : nullptr, w_.blacklist ? &blacklist_ : nullptr);
        // Ids are unique per generator; tag the port so they stay unique
        // across both (the scoreboard and the health layer key on them).
        const uint64_t tag = uint64_t(port + 1) << 48;
        dist::TrafficSource::GenFn fn = [gen, tag] {
            net::PacketPtr p = gen->next();
            p->id |= tag;
            return p;
        };
        if (tracer_) fn = tracer_->wrap_gen(std::move(fn));
        dist::TrafficSource::Config sc;
        sc.port = port;
        sc.load = w_.load;
        sc.max_packets = max_packets;
        sources_.push_back(&sys_->add_source(sc, std::move(fn)));
    }
}

Bench::~Bench() {
    if (tracer_) tracer_->unwrap_obs(*sys_);
    if (health_) health_->detach();
    if (telemetry_) telemetry_->detach();
}

oracle::OracleConfig
Bench::oracle_config() const {
    oracle::OracleConfig c;
    c.pipeline = w_.pipeline;
    c.lb_policy = lb::Policy::kRoundRobin;
    c.rpu_count = w_.rpus;
    if (w_.blacklist) c.blacklist = &blacklist_;
    if (w_.rules) c.rules = &rules_;
    return c;
}

uint64_t
Bench::offered() const {
    uint64_t n = 0;
    for (auto* s : sources_) n += s->offered();
    return n;
}

uint64_t
Bench::mac_dropped() const {
    uint64_t n = 0;
    for (auto* s : sources_) n += s->dropped_at_mac();
    return n;
}

CheckResult
run_check(const Workload& w, uint64_t seed, const net::Blacklist* oracle_blacklist) {
    Bench b(w, seed, nullptr);
    oracle::OracleConfig oc = b.oracle_config();
    if (oracle_blacklist) oc.blacklist = oracle_blacklist;
    oracle::DataplaneOracle oracle(oc);
    oracle::Scoreboard sb(b.sys(), oracle);
    b.start_traffic(w.check_packets);
    // Run until both capped sources are exhausted, then drain.
    const Cycle chunk = 10'000;
    for (unsigned i = 0; i < 2000 && b.offered() < 2 * w.check_packets; ++i)
        b.sys().run_cycles(chunk);
    for (unsigned i = 0; i < 50 && sb.outstanding() > 0; ++i) b.sys().run_cycles(chunk);
    CheckResult r;
    auto counts = sb.finish();
    r.offered = counts.offered;
    r.divergences = counts.divergences;
    r.report = sb.report();
    return r;
}

namespace {

/// Per-layer counters summed over components (rpuN.*, portN.*).
std::unordered_map<std::string, uint64_t>
layer_counters(System& sys) {
    std::unordered_map<std::string, uint64_t> m;
    auto ends_with = [](const std::string& s, const char* suffix) {
        size_t n = std::strlen(suffix);
        return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
    };
    for (const auto& [name, c] : sys.stats().counters()) {
        uint64_t v = c.get();
        if (name.rfind("port", 0) == 0 && ends_with(name, ".rx_fifo_drops"))
            m["dist.rx_fifo_drops"] += v;
        else if (name.rfind("rpu", 0) == 0 && ends_with(name, ".rx_packets"))
            m["rpu.rx_packets"] += v;
        else if (name.rfind("rpu", 0) == 0 && ends_with(name, ".tx_stall_cycles"))
            m["rpu.tx_stall_cycles"] += v;
        else if (name.rfind("rpu", 0) == 0 && ends_with(name, ".dropped_packets"))
            m["rpu.dropped_packets"] += v;
    }
    m["dist.voq_stall"] = sys.stats().get("fabric.voq_stall");
    m["lb.assigned"] = sys.stats().get("lb.assigned");
    m["lb.assign_stall"] = sys.stats().get("lb.assign_stall");
    m["lb.reassembler_held"] = sys.stats().get("lb.reassembler.held");
    m["accel.jobs"] = sys.stats().get("pigasus.jobs");
    m["accel.matches"] = sys.stats().get("pigasus.matches");
    return m;
}

void
core_totals(System& sys, uint64_t& instret, uint64_t& cycles) {
    instret = cycles = 0;
    for (unsigned i = 0; i < sys.rpu_count(); ++i) {
        instret += sys.rpu(i).core().instret();
        cycles += sys.rpu(i).core().cycles();
    }
}

}  // namespace

RepResult
run_rep(const Workload& w, uint64_t seed, Tracer* tracer) {
    RepResult r;
    Bench b(w, seed, tracer);
    b.start_traffic();
    System& sys = b.sys();
    sys.run_cycles(w.warmup);

    sys.sink(0).start_window();
    sys.sink(1).start_window();
    if (tracer) tracer->start();
    const uint64_t offered0 = b.offered();
    const uint64_t dropped0 = b.mac_dropped();
    const Cycle ff0 = sys.kernel().fast_forwarded_cycles();
    auto ctr0 = layer_counters(sys);
    uint64_t instret0, cyc0;
    core_totals(sys, instret0, cyc0);
    const size_t components = sys.kernel().component_count();

    r.epoch_cpu_s.reserve(w.epochs_per_rep);
    double awake = 0;
    uint32_t window_span = tracer ? tracer->open("window") : 0;
    const uint64_t ns0 = steady_ns();
    const double cpu0 = cpu_s();
    double prev = cpu0;
    for (unsigned e = 0; e < w.epochs_per_rep; ++e) {
        uint32_t id = tracer ? tracer->open("run_cycles") : 0;
        sys.run_cycles(w.epoch);
        if (tracer) tracer->close(id);
        double now = cpu_s();
        r.epoch_cpu_s.push_back(now - prev);
        prev = now;
        awake += double(sys.kernel().awake_count()) / double(components);
    }
    r.window_cpu_s = prev - cpu0;
    r.window_ns = steady_ns() - ns0;
    if (tracer) {
        tracer->close(window_span);
        tracer->stop();
    }
    r.window_cycles = w.epoch * w.epochs_per_rep;
    r.awake_frac = awake / double(w.epochs_per_rep);
    r.ff_cycles = sys.kernel().fast_forwarded_cycles() - ff0;
    r.counters = layer_counters(sys);
    for (auto& [k, v] : r.counters) v -= ctr0[k];
    uint64_t instret1, cyc1;
    core_totals(sys, instret1, cyc1);
    r.instret = instret1 - instret0;
    r.core_cycles = cyc1 - cyc0;

    r.offered = b.offered() - offered0;
    r.dropped = b.mac_dropped() - dropped0;
    const double secs = double(r.window_cycles) / sim::kClockHz;
    r.dut_gbps = double(sys.sink(0).window_bytes() + sys.sink(1).window_bytes()) * 8.0 /
                 secs / 1e9;
    std::vector<double> lat;
    for (unsigned port = 0; port < 2; ++port)
        for (double v : sys.sink(port).latency().samples()) lat.push_back(v);
    r.lat_p50_cycles = quantile(lat, 0.50) / sim::kNsPerCycle;
    r.lat_p99_cycles = quantile(lat, 0.99) / sim::kNsPerCycle;
    r.fingerprint = sys.state_fingerprint();
    return r;
}

}  // namespace perfbench

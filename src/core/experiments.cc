#include "core/experiments.h"

#include <chrono>
#include <memory>

#include "accel/firewall.h"
#include "accel/pigasus.h"
#include "firmware/programs.h"
#include "net/headers.h"
#include "sim/log.h"

namespace rosebud::exp {

namespace {

SimTuning g_tuning;
double g_last_host_seconds = 0.0;

/// Applies the process-wide tuning to a freshly built System.
void
apply_tuning(System& sys) {
    sys.kernel().set_idle_skip(g_tuning.idle_skip);
    sys.kernel().set_commit_compat(g_tuning.commit_compat);
    for (unsigned i = 0; i < sys.rpu_count(); ++i)
        sys.rpu(i).core().set_predecode(g_tuning.predecode);
}

/// RAII wall-clock timer recording into last_run_host_seconds(); one per
/// run_* harness so callers can print a host-time summary per experiment.
struct HostTimer {
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    ~HostTimer() {
        g_last_host_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
    }
};

}  // namespace

void
set_sim_tuning(const SimTuning& t) { g_tuning = t; }

const SimTuning&
sim_tuning() { return g_tuning; }

double
last_run_host_seconds() { return g_last_host_seconds; }

namespace {

/// Generator that clones a prototype frame (cheap fixed-size traffic).
dist::TrafficSource::GenFn
fixed_size_gen(uint32_t size, uint64_t seed) {
    net::PacketBuilder b;
    b.ipv4(0x0a000001 + uint32_t(seed), 0x0a000002)
        .udp(uint16_t(1024 + seed), 2000)
        .frame_size(size);
    net::PacketPtr proto = b.build();
    auto next_id = std::make_shared<uint64_t>(seed << 32);
    return [proto, next_id]() {
        auto p = std::make_shared<net::Packet>(*proto);
        p->id = (*next_id)++;
        return p;
    };
}

/// Generator that streams a TraceGenerator.
dist::TrafficSource::GenFn
trace_gen(std::shared_ptr<net::TraceGenerator> gen) {
    return [gen]() { return gen->next(); };
}

uint64_t
rpu_counter_sum(System& sys, const char* suffix) {
    uint64_t total = 0;
    for (unsigned i = 0; i < sys.rpu_count(); ++i) {
        total += sys.stats().get("rpu" + std::to_string(i) + "." + suffix);
    }
    return total;
}

}  // namespace

std::vector<uint32_t>
figure7_sizes() {
    return {64, 65, 128, 256, 512, 1024, 1500, 2048, 4096, 8192, 9000};
}

ForwardingPoint
run_forwarding(const ForwardingParams& p) {
    HostTimer timer;
    SystemConfig cfg;
    cfg.rpu_count = p.rpu_count;
    System sys(cfg);
    apply_tuning(sys);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);

    for (unsigned port = 0; port < p.ports; ++port) {
        sys.add_source({.port = port, .line_gbps = 100.0, .load = p.load},
                       fixed_size_gen(p.size, port + 1));
    }

    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    sys.run_cycles(p.window);

    ForwardingPoint out;
    out.size = p.size;
    out.rpu_count = p.rpu_count;
    double secs = double(p.window) / sim::kClockHz;
    uint64_t frames = sys.sink(0).window_frames() + sys.sink(1).window_frames();
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
    out.achieved_gbps = double(bytes) * 8.0 / secs / 1e9;
    out.achieved_mpps = double(frames) / secs / 1e6;
    double total_line = 100.0 * p.ports;
    out.offered_gbps = net::line_rate_goodput_gbps(p.size, total_line) * p.load;
    out.line_gbps = net::line_rate_goodput_gbps(p.size, total_line);
    out.line_mpps = net::line_rate_pps(p.size, total_line) / 1e6;
    return out;
}

double
eq1_latency_us(uint32_t size, double fixed_us) {
    return double(size) * 8.0 * (2.0 / 100.0 + 2.0 / 32.0) / 1000.0 + fixed_us;
}

LatencyPoint
run_latency(const LatencyParams& p) {
    HostTimer timer;
    SystemConfig cfg;
    cfg.rpu_count = p.rpu_count;
    System sys(cfg);
    apply_tuning(sys);
    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);

    for (unsigned port = 0; port < 2; ++port) {
        sys.add_source({.port = port, .line_gbps = 100.0, .load = p.load},
                       fixed_size_gen(p.size, port + 1));
    }

    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    sys.run_cycles(p.window);

    LatencyPoint out;
    out.size = p.size;
    sim::Sampler all;
    for (unsigned port = 0; port < 2; ++port) {
        for (double v : sys.sink(port).latency().samples()) all.add(v);
    }
    out.mean_us = all.mean() / 1e3;
    out.min_us = all.min() / 1e3;
    out.max_us = all.max() / 1e3;
    out.p99_us = all.percentile(0.99) / 1e3;
    out.eq1_us = eq1_latency_us(p.size);
    return out;
}

LoopbackPoint
run_loopback(unsigned rpu_count, uint32_t size, sim::Cycle warmup, sim::Cycle window) {
    HostTimer timer;
    SystemConfig cfg;
    cfg.rpu_count = rpu_count;
    System sys(cfg);
    apply_tuning(sys);
    auto fw = fwlib::two_step_forwarder(rpu_count);
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    // Only the first half of the RPUs receives incoming traffic.
    sys.host().set_recv_mask((1u << (rpu_count / 2)) - 1);

    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0}, fixed_size_gen(size, 1));

    sys.run_cycles(warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    sys.run_cycles(window);

    LoopbackPoint out;
    out.size = size;
    double secs = double(window) / sim::kClockHz;
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
    out.achieved_gbps = double(bytes) * 8.0 / secs / 1e9;
    out.line_gbps = net::line_rate_goodput_gbps(size, 100.0);
    out.fraction_of_line = out.achieved_gbps / out.line_gbps;
    return out;
}

namespace {

/// Shared measurement body: the messages carry the sender's cycle counter
/// (== kernel cycles since boot), and the delivery probe computes
/// send-timestamp-to-simultaneous-arrival latency — the same semantics as
/// the paper's "compare the current time against the transmit time".
void
measure_broadcast(unsigned rpu_count, sim::Cycle window, const fwlib::Program& fw,
                  bool all_send, double& min_ns, double& max_ns, double& mean_ns,
                  uint64_t& messages) {
    SystemConfig cfg;
    cfg.rpu_count = rpu_count;
    System sys(cfg);
    apply_tuning(sys);
    if (all_send) {
        sys.host().load_firmware_all(fw.image, fw.entry);
    } else {
        auto sink = fwlib::broadcast_sink();
        sys.host().load_firmware(0, fw.image, fw.entry);
        for (unsigned i = 1; i < rpu_count; ++i) {
            sys.host().load_firmware(i, sink.image, sink.entry);
        }
    }
    sim::Cycle boot_cycle = sys.kernel().now();
    sys.host().boot_all();

    sim::Sampler lat;
    sim::Cycle measure_from = boot_cycle + window / 4;  // skip warm-up
    sys.broadcast().set_delivery_probe(
        [&](uint32_t /*offset*/, uint32_t value, sim::Cycle now) {
            if (now < measure_from) return;
            double cycles = double(now - boot_cycle) - double(value);
            lat.add(cycles * sim::kNsPerCycle);
        });
    sys.run_cycles(window);

    min_ns = lat.empty() ? 0 : lat.min();
    max_ns = lat.max();
    mean_ns = lat.mean();
    messages = lat.count();
}

}  // namespace

BroadcastResult
run_broadcast(unsigned rpu_count, sim::Cycle window) {
    HostTimer timer;
    BroadcastResult out;
    uint64_t n_sparse = 0;
    measure_broadcast(rpu_count, window, fwlib::broadcast_sender(2000), /*all_send=*/false,
                      out.sparse_min_ns, out.sparse_max_ns, out.sparse_mean_ns, n_sparse);
    measure_broadcast(rpu_count, window, fwlib::broadcast_sender(0), /*all_send=*/true,
                      out.saturated_min_ns, out.saturated_max_ns, out.saturated_mean_ns,
                      out.messages);
    out.messages += n_sparse;
    return out;
}

IpsPoint
run_ips(const IpsParams& p) {
    HostTimer timer;
    sim::Rng rng(p.seed);
    net::IdsRuleSet rules = net::IdsRuleSet::synthesize(p.rule_count, rng);

    SystemConfig cfg;
    cfg.rpu_count = p.rpu_count;
    if (p.mode == IpsMode::kHwReorder) {
        cfg.lb_policy = lb::Policy::kRoundRobin;
        cfg.hw_reassembler = true;
    } else {
        cfg.lb_policy = lb::Policy::kHash;
    }
    System sys(cfg);
    apply_tuning(sys);
    sys.attach_accelerators([&] { return std::make_unique<accel::PigasusMatcher>(rules); });

    auto fw = p.mode == IpsMode::kHwReorder ? fwlib::pigasus_hw_reorder()
                                            : fwlib::pigasus_sw_reorder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);

    // Host receive path: matched attack packets plus (in SW-reorder mode)
    // reorder-buffer punts; count them separately via the ground truth.
    auto host_frames = std::make_shared<uint64_t>(0);
    auto host_bytes = std::make_shared<uint64_t>(0);
    auto host_attacks = std::make_shared<uint64_t>(0);
    sys.host().set_rx_handler([host_frames, host_bytes, host_attacks](net::PacketPtr pkt) {
        ++*host_frames;
        *host_bytes += pkt->size();
        if (pkt->is_attack) ++*host_attacks;
    });

    net::TrafficSpec spec;
    spec.packet_size = p.size;
    spec.attack_fraction = p.attack_fraction;
    spec.reorder_fraction = p.reorder_fraction;
    spec.udp_fraction = 0.05;
    auto attacks_offered = std::make_shared<uint64_t>(0);
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec s = spec;
        s.seed = p.seed + port + 1;
        auto gen = std::make_shared<net::TraceGenerator>(s, &rules);
        sys.add_source({.port = port, .line_gbps = 100.0, .load = 1.0},
                       [gen, attacks_offered]() {
                           auto pkt = gen->next();
                           if (pkt->is_attack) ++*attacks_offered;
                           return pkt;
                       });
    }

    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    uint64_t attacks_at_start = *attacks_offered;
    uint64_t host_frames_at_start = *host_frames;
    uint64_t host_bytes_at_start = *host_bytes;
    uint64_t host_attacks_at_start = *host_attacks;
    sys.run_cycles(p.window);

    IpsPoint out;
    out.size = p.size;
    out.mode = p.mode;
    double secs = double(p.window) / sim::kClockHz;
    uint64_t frames = sys.sink(0).window_frames() + sys.sink(1).window_frames() +
                      (*host_frames - host_frames_at_start);
    uint64_t bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes() +
                     (*host_bytes - host_bytes_at_start);
    out.achieved_gbps = double(bytes) * 8.0 / secs / 1e9;
    out.achieved_mpps = double(frames) / secs / 1e6;
    out.line_gbps = net::line_rate_goodput_gbps(p.size, 200.0);
    out.cycles_per_packet =
        frames ? double(p.rpu_count) * sim::kClockHz * secs / double(frames) : 0.0;
    out.matched_to_host = *host_attacks - host_attacks_at_start;
    out.punted_to_host =
        (*host_frames - host_frames_at_start) - (*host_attacks - host_attacks_at_start);
    out.expected_attacks = *attacks_offered - attacks_at_start;
    return out;
}

FirewallPoint
run_firewall(const FirewallParams& p) {
    HostTimer timer;
    sim::Rng rng(p.seed);
    net::Blacklist blacklist = net::Blacklist::synthesize(p.blacklist_size, rng);

    SystemConfig cfg;
    cfg.rpu_count = p.rpu_count;
    System sys(cfg);
    apply_tuning(sys);
    sys.attach_accelerators([&] { return std::make_unique<accel::FirewallMatcher>(blacklist); });
    auto fw = fwlib::firewall();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);

    net::TrafficSpec spec;
    spec.packet_size = p.size;
    spec.attack_fraction = p.attack_fraction;
    spec.udp_fraction = 0.2;
    auto attacks_offered = std::make_shared<uint64_t>(0);
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec s = spec;
        s.seed = p.seed + port + 1;
        auto gen = std::make_shared<net::TraceGenerator>(s, nullptr, &blacklist);
        sys.add_source({.port = port, .line_gbps = 100.0, .load = 1.0},
                       [gen, attacks_offered]() {
                           auto pkt = gen->next();
                           if (pkt->is_attack) ++*attacks_offered;
                           return pkt;
                       });
    }

    sys.run_cycles(p.warmup);
    sys.sink(0).start_window();
    sys.sink(1).start_window();
    uint64_t attacks_at_start = *attacks_offered;
    uint64_t drops_at_start = rpu_counter_sum(sys, "dropped_packets");
    sys.run_cycles(p.window);

    FirewallPoint out;
    out.size = p.size;
    double secs = double(p.window) / sim::kClockHz;
    uint64_t fwd_bytes = sys.sink(0).window_bytes() + sys.sink(1).window_bytes();
    out.forwarded = sys.sink(0).window_frames() + sys.sink(1).window_frames();
    out.blocked = rpu_counter_sum(sys, "dropped_packets") - drops_at_start;
    out.expected_blocked = *attacks_offered - attacks_at_start;
    // Achieved = absorbed traffic (forwarded + blocked), as the paper reads
    // "RX bytes" on the DUT.
    out.achieved_gbps =
        (double(fwd_bytes) + double(out.blocked) * p.size) * 8.0 / secs / 1e9;
    out.line_gbps = net::line_rate_goodput_gbps(p.size, 200.0);
    return out;
}

double
run_single_rpu_cycles_per_packet(const SingleRpuParams& p) {
    HostTimer timer;
    sim::Rng rng(p.seed);
    net::IdsRuleSet rules = net::IdsRuleSet::synthesize(p.rule_count, rng);

    SystemConfig cfg;
    cfg.rpu_count = 4;
    if (p.mode == IpsMode::kHwReorder) {
        cfg.lb_policy = lb::Policy::kRoundRobin;
        cfg.hw_reassembler = true;
    } else {
        cfg.lb_policy = lb::Policy::kHash;
    }
    System sys(cfg);
    apply_tuning(sys);
    sys.attach_accelerators([&] { return std::make_unique<accel::PigasusMatcher>(rules); });
    auto fw = p.mode == IpsMode::kHwReorder ? fwlib::pigasus_hw_reorder()
                                            : fwlib::pigasus_sw_reorder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    sys.host().set_recv_mask(1);  // single-RPU measurement
    sys.host().set_rx_handler([](net::PacketPtr) {});

    net::TrafficSpec spec;
    spec.packet_size = p.size;
    spec.attack_fraction = p.attack ? 1.0 : 0.0;
    spec.udp_fraction = p.udp ? 1.0 : 0.0;
    spec.reorder_fraction = 0.0;
    spec.seed = p.seed;
    auto gen = std::make_shared<net::TraceGenerator>(spec, &rules);
    sys.add_source({.port = 0, .line_gbps = 100.0, .load = 1.0}, trace_gen(gen));

    sys.run_cycles(20'000);
    uint64_t before = sys.stats().get("rpu0.tx_packets") +
                      sys.stats().get("rpu0.dropped_packets");
    uint64_t host_before = sys.stats().get("host.rx_frames");
    sim::Cycle window = 60'000;
    sys.run_cycles(window);
    uint64_t processed = sys.stats().get("rpu0.tx_packets") +
                         sys.stats().get("rpu0.dropped_packets") - before;
    (void)host_before;
    if (processed == 0) return 0.0;
    return double(window) / double(processed);
}

}  // namespace rosebud::exp

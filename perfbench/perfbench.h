/// \file
/// The repository benchmark: four named workloads driven through the public
/// rosebud::System API on the default serial tuned kernel, an oracle check
/// pass, and an outside-in tracer that wraps the calls the benchmark hands
/// to the system (traffic generator, accelerators, health probe, telemetry
/// sink, host rx handler, packet observer). See perfbench/README.md.

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <chrono>
#include <cstdint>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/system.h"
#include "net/rules.h"
#include "obs/health.h"
#include "obs/telemetry.h"
#include "oracle/oracle.h"

namespace perfbench {

using rosebud::sim::Cycle;

/// Observability layer a workload keeps attached for its whole run.
enum class Obs { kNone, kHealth, kTelemetry };

/// One named workload: 2 ports x 100G, open-loop tester at a fixed share of
/// line rate, one process on one thread.
struct Workload {
    const char* name;
    rosebud::oracle::Pipeline pipeline;
    unsigned rpus;
    uint32_t size;           ///< frame bytes
    double load;             ///< share of line rate per port
    double attack;           ///< rule/blacklist-matching share
    double reorder;          ///< TCP reorder share
    double udp;              ///< UDP flow share
    size_t rules;            ///< IDS rules (pigasus)
    size_t blacklist;        ///< blacklist entries (firewall)
    Obs obs;
    Cycle warmup;            ///< untimed cycles before each measured window
    Cycle epoch;             ///< cycles per timed epoch
    unsigned epochs_per_rep; ///< window = epoch * epochs_per_rep
    uint64_t check_packets;  ///< packets per port in the oracle check pass
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// The default seed, and the held-out seed later claims must also hold on.
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kHeldOutSeed = 7919;

/// Process CPU seconds (the benchmark is single-threaded).
double cpu_s();

inline uint64_t
steady_ns() {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/// Raw cycle counter for the sampled call timers: on x86 a plain rdtsc,
/// which does not serialize the pipeline the way the ordered read behind
/// steady_clock does (that serialization inflates calls of a few tens of
/// ns); elsewhere the steady clock.
inline uint64_t
ticks() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return steady_ns();
#endif
}

/// Linear-interpolated quantile of `v` (sorted in place); 0 when empty.
double quantile(std::vector<double>& v, double q);

/// Host-state calibration: a fixed loop owned by the benchmark and sharing
/// no code with the simulator — random read-modify-writes over one 8 MiB
/// buffer, then a dependent pointer chase through another. On a shared
/// host, neighbours' cache and memory traffic slow it much as they slow
/// the simulation loop, and more than they slow set-up and tail epochs. The
/// host-time metrics are reported scaled to a host on which one pass takes
/// kNominalS of CPU time: the simulation speed by the loop's slowdown, set-up
/// and epoch times by its square root.
class Calibration {
 public:
    static constexpr size_t kWords = size_t(1) << 21;  ///< per buffer
    static constexpr size_t kBytes = 2 * kWords * sizeof(uint32_t);
    static constexpr double kNominalS = 0.030;
    Calibration();
    /// Host slowdown against the nominal host: pass / kNominalS for one
    /// pass timed right after an untimed warm-up pass, so that the
    /// figure does not depend on what ran before it (the simulator's own
    /// cache and memory footprint included).
    double slowdown();

 private:
    void pass();

    std::vector<uint32_t> rmw_;
    std::vector<uint32_t> chase_;
    uint64_t x_ = 1;
    uint32_t at_ = 0;
};

// --- outside-in tracing ------------------------------------------------------

/// Every call is counted; one call in kSamplePeriod, drawn at random so
/// that the sample cannot lock onto a per-cycle call pattern, is timed.
inline constexpr uint64_t kSamplePeriod = 64;

struct CallTimer {
    uint64_t calls = 0;
    uint64_t timed = 0;
    uint64_t timed_ns = 0;

    /// Estimated host nanoseconds over all calls.
    double est_ns() const {
        return timed ? double(timed_ns) * double(calls) / double(timed) : 0.0;
    }
    double ns_per_call() const { return timed ? double(timed_ns) / double(timed) : 0.0; }
};

/// A host-time span; `parent` indexes the span log (UINT32_MAX = root).
struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
};

/// Simulated per-packet stage spans (cycles), from the packet observer.
struct PacketSpans {
    std::vector<double> ingress;   ///< mac_rx -> lb_assign
    std::vector<double> dispatch;  ///< lb_assign -> rpu_rx_complete
    std::vector<double> fw;        ///< rpu_rx_complete -> fw_send / fw_drop
    std::vector<double> egress;    ///< fw_send -> mac_tx
};

class Tracer;

/// Forwarding decorator handed to System::attach_accelerators.
class TracedAccelerator : public rosebud::rpu::Accelerator {
 public:
    TracedAccelerator(std::unique_ptr<rosebud::rpu::Accelerator> inner, Tracer& t)
        : inner_(std::move(inner)), t_(t) {}
    void reset() override { inner_->reset(); }
    void tick(rosebud::rpu::AccelContext& ctx) override;
    bool mmio_read(uint32_t offset, uint32_t& value,
                   rosebud::rpu::AccelContext& ctx) override;
    bool mmio_write(uint32_t offset, uint32_t value,
                    rosebud::rpu::AccelContext& ctx) override;
    rosebud::sim::ResourceFootprint resources() const override { return inner_->resources(); }
    std::string name() const override { return inner_->name(); }
    unsigned stream_ports() const override { return inner_->stream_ports(); }
    unsigned queue_count() const override { return inner_->queue_count(); }

 private:
    std::unique_ptr<rosebud::rpu::Accelerator> inner_;
    Tracer& t_;
};

/// Forwarding HealthProbe swapped in over the attached monitor.
class TracedHealthProbe : public rosebud::sim::HealthProbe {
 public:
    explicit TracedHealthProbe(Tracer& t) : t_(t) {}
    void on_cycle(uint64_t completed) override;
    rosebud::sim::HealthProbe* inner = nullptr;

 private:
    Tracer& t_;
};

/// Forwarding TelemetrySink swapped in over the attached obs::Telemetry.
class TracedTelemetrySink : public rosebud::sim::TelemetrySink {
 public:
    explicit TracedTelemetrySink(Tracer& t) : t_(t) {}
    void net_event(const std::string& net, NetEvent ev) override;
    void net_occupancy(const std::string& net, size_t occupancy, size_t capacity) override;
    void end_cycle(uint64_t completed) override;
    rosebud::sim::TelemetrySink* inner = nullptr;

 private:
    Tracer& t_;
};

/// Outside-in tracer: wraps what the benchmark hands to the system, counts
/// every call, times a sample of them, keeps host spans in memory, and
/// collects simulated packet stage spans for a sample of packet ids.
class Tracer {
 public:
    Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    CallTimer gen, accel_tick, accel_mmio, health, telemetry, rx, observer;

    /// Inside a measured window, count the call and, for a random one call
    /// in kSamplePeriod, time it and log a span under the current parent.
    template <typename F>
    decltype(auto) call(CallTimer& t, const char* name, F&& f) {
        if (!recording_) return f();
        ++t.calls;
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        if ((rng_ & (kSamplePeriod - 1)) != 0) return f();
        struct Guard {
            Tracer& tr;
            CallTimer& t;
            const char* name;
            uint64_t t0 = ticks();
            ~Guard() { tr.close_sampled(t, name, t0); }
        } g{*this, t, name};
        return f();
    }

    // Wrappers for what the benchmark hands to the system.
    rosebud::dist::TrafficSource::GenFn wrap_gen(rosebud::dist::TrafficSource::GenFn fn);
    rosebud::dist::Fabric::SinkFn wrap_rx(rosebud::dist::Fabric::SinkFn fn);
    std::unique_ptr<rosebud::rpu::Accelerator> wrap_accel(
        std::unique_ptr<rosebud::rpu::Accelerator> a);
    /// Swap forwarders in over the kernel's health probe / telemetry sink.
    void wrap_obs(rosebud::System& sys);
    /// Put the original pointers back (before the obs layer detaches).
    void unwrap_obs(rosebud::System& sys);
    /// Register the sampled packet-span observer.
    void observe_packets(rosebud::System& sys);

    /// Host spans: open/close a named span under the current parent.
    uint32_t open(const char* name);
    void close(uint32_t id);
    const std::vector<Span>& spans() const { return spans_; }
    uint64_t spans_dropped() const { return spans_dropped_; }

    /// Calls are counted and packet spans kept only inside measured
    /// windows; both accumulate over every window of the run.
    void start() { recording_ = true; }
    void stop() { recording_ = false; }
    const PacketSpans& packet_spans() const { return pkt_; }

    /// Estimated host ns spent in every traced callee (all timers).
    double callee_ns() const;

    /// Record a sampled call that started at tick `t0`.
    void close_sampled(CallTimer& t, const char* name, uint64_t t0);

 private:
    void on_packet(const char* stage, const rosebud::net::Packet& pkt, Cycle now);

    static constexpr size_t kMaxSpans = 65536;
    uint64_t to_ns(uint64_t t) const {
        return base_ns_ + uint64_t(double(t - base_ticks_) * ns_per_tick_);
    }

    uint64_t rng_ = 0x9E3779B97F4A7C15ull;
    uint64_t base_ns_ = 0, base_ticks_ = 0;
    double ns_per_tick_ = 1.0;
    uint64_t read_ticks_ = 0;  ///< cost of one ticks() read, taken off each sample
    std::vector<Span> spans_;
    uint64_t spans_dropped_ = 0;
    uint32_t parent_ = UINT32_MAX;

    TracedHealthProbe health_fwd_;
    TracedTelemetrySink telemetry_fwd_;

    struct Marks {
        Cycle mac_rx = ~Cycle(0), lb = ~Cycle(0), rpu_rx = ~Cycle(0), fw = ~Cycle(0);
    };
    std::unordered_map<uint64_t, Marks> marks_;
    PacketSpans pkt_;
    bool recording_ = false;
};

// --- workload runs -------------------------------------------------------------

/// Host CPU seconds of each set-up phase.
struct SetupTimes {
    double construct = 0;  ///< System{} + attach_accelerators
    double firmware = 0;   ///< load_firmware_all (runs the verifier)
    double boot = 0;       ///< boot_all
    double first_step = 0; ///< first run_cycles (runs the lint gate)
    double total = 0;      ///< all of the above plus rx handler and obs attach
};

/// One built workload: a System with firmware, accelerators and obs layer,
/// booted and past its first step (the timed set-up), ready for traffic.
class Bench {
 public:
    Bench(const Workload& w, uint64_t seed, Tracer* tracer);
    ~Bench();
    Bench(const Bench&) = delete;
    Bench& operator=(const Bench&) = delete;

    /// Add both open-loop sources; `max_packets` caps each (0 = unbounded).
    /// The tester's ports are not cycle-aligned: port 1 starts a
    /// seed-derived 1..1024 cycles after port 0.
    void start_traffic(uint64_t max_packets = 0);

    rosebud::System& sys() { return *sys_; }
    const SetupTimes& setup() const { return setup_; }
    /// Oracle configuration built from the same rules/blacklist objects.
    rosebud::oracle::OracleConfig oracle_config() const;
    /// Frames offered / refused by the MAC, summed over both sources.
    uint64_t offered() const;
    uint64_t mac_dropped() const;

 private:
    const Workload& w_;
    Tracer* tracer_;
    rosebud::net::IdsRuleSet rules_;
    rosebud::net::Blacklist blacklist_;
    std::unique_ptr<rosebud::System> sys_;
    std::unique_ptr<rosebud::obs::HealthMonitor> health_;
    std::unique_ptr<rosebud::obs::Telemetry> telemetry_;
    std::vector<rosebud::dist::TrafficSource*> sources_;
    SetupTimes setup_;
    uint64_t seed_ = 0;
    Cycle port1_delay_ = 0;
};

/// Outcome of the untimed oracle check pass.
struct CheckResult {
    uint64_t offered = 0;      ///< packets registered by the scoreboard
    uint64_t divergences = 0;  ///< includes stuck (undrained) packets
    std::string report;
};

/// Run the workload with capped sources and an oracle::Scoreboard attached,
/// drain, and score. `oracle_blacklist` replaces the oracle's blacklist
/// (the self-tests corrupt it on purpose).
CheckResult run_check(const Workload& w, uint64_t seed,
                      const rosebud::net::Blacklist* oracle_blacklist = nullptr);

/// One measured repetition: fresh System, warm-up, timed epochs.
struct RepResult {
    Cycle window_cycles = 0;
    double window_cpu_s = 0;
    uint64_t window_ns = 0;  ///< steady-clock window time
    std::vector<double> epoch_cpu_s;
    uint64_t fingerprint = 0;

    // Simulated side (deterministic).
    double dut_gbps = 0;
    double lat_p50_cycles = 0;
    double lat_p99_cycles = 0;
    uint64_t offered = 0;
    uint64_t dropped = 0;  ///< MAC refusals over the window

    // Layer counters over the window.
    Cycle ff_cycles = 0;
    double awake_frac = 0;  ///< mean over epoch boundaries
    std::unordered_map<std::string, uint64_t> counters;
    uint64_t instret = 0;
    uint64_t core_cycles = 0;
};

RepResult run_rep(const Workload& w, uint64_t seed, Tracer* tracer);

/// True when `name` matches [A-Za-z0-9_.-]+.
bool valid_metric_name(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H

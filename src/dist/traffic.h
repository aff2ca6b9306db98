/// \file
/// Traffic endpoints standing in for the paper's tester FPGA.
///
/// TrafficSource paces frames onto one 100 Gbps wire (token bucket in line
/// bytes, including preamble/IFG/FCS overhead) and timestamps them at the
/// start of serialization, exactly like the paper's packet generator.
/// TrafficSink records delivered frames, bytes, and round-trip latency.
/// The source can optionally be capped at a packet rate to mirror the
/// tester's own generation limit below 128-byte frames (Section 6.1).

#ifndef ROSEBUD_DIST_TRAFFIC_H
#define ROSEBUD_DIST_TRAFFIC_H

#include <functional>
#include <memory>

#include "dist/fabric.h"
#include "net/packet.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace rosebud::dist {

class TrafficSource : public sim::Component {
 public:
    struct Config {
        unsigned port = 0;
        double line_gbps = 100.0;
        double load = 1.0;          ///< fraction of line rate to offer
        double max_pps = 0.0;       ///< 0 = unlimited (tester generation cap)
        uint64_t max_packets = 0;   ///< 0 = unlimited
    };

    /// `gen` produces the next frame each time the wire frees up.
    using GenFn = std::function<net::PacketPtr()>;

    TrafficSource(sim::Kernel& kernel, const Config& config, Fabric& fabric,
                  GenFn gen);

    void tick() override;

    /// A capped source that has offered its last packet never acts again
    /// (tick is a no-op), so it can sleep for the rest of the run.
    bool quiescent() const override {
        return config_.max_packets != 0 && offered_ >= config_.max_packets;
    }

    /// Cycles this source can provably spend accumulating tokens without
    /// emitting (conservative: two cycles under the analytic first-emission
    /// point, so float replay can never cross the threshold early).
    sim::Cycle idle_horizon() const override;

    uint64_t offered() const { return offered_; }
    /// Line-byte credit in the token bucket (bit-exact replay is tested).
    double tokens() const { return tokens_; }

 protected:
    /// Bit-exact replay of `n` non-emitting ticks (the token additions the
    /// live ticks would have performed, in the same order — never
    /// summarized as tokens + n*rate, which differs in floating point).
    void on_wake(sim::Cycle n) override;

 public:
    uint64_t dropped_at_mac() const { return dropped_; }

 private:
    Config config_;
    Fabric& fabric_;
    GenFn gen_;
    double tokens_ = 0.0;
    double bytes_per_cycle_;
    double pps_tokens_ = 0.0;
    double pps_per_cycle_;
    net::PacketPtr staged_;
    uint64_t offered_ = 0;
    uint64_t dropped_ = 0;
};

/// Records what comes back to the tester.
class TrafficSink {
 public:
    TrafficSink(sim::Kernel& kernel, sim::Stats& stats, std::string name);

    /// Wire as a Fabric MAC TX sink.
    void deliver(const net::PacketPtr& pkt);

    uint64_t frames() const { return frames_; }
    uint64_t bytes() const { return bytes_; }
    uint64_t window_frames() const { return window_frames_; }
    uint64_t window_bytes() const { return window_bytes_; }

    /// Average delivered goodput over [from_cycle, now].
    double gbps_since(sim::Cycle from_cycle) const;

    /// Mark the start of the measurement window (drops warm-up counts).
    void start_window();

    sim::Sampler& latency() { return latency_; }

 private:
    sim::Kernel& kernel_;
    sim::Stats& stats_;
    std::string name_;
    sim::Counter* ctr_frames_;
    sim::Counter* ctr_bytes_;
    uint64_t frames_ = 0;
    uint64_t bytes_ = 0;
    uint64_t window_frames_ = 0;
    uint64_t window_bytes_ = 0;
    sim::Cycle window_start_ = 0;
    sim::Sampler latency_;
};

}  // namespace rosebud::dist

#endif  // ROSEBUD_DIST_TRAFFIC_H

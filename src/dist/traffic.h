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
#include "sim/shard.h"
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

    TrafficSource(sim::Kernel& kernel, sim::Stats& stats, const Config& config,
                  Fabric& fabric, GenFn gen);

    void tick() override;

    /// A capped source that has offered its last packet never acts again
    /// (tick is a no-op), so it can sleep for the rest of the run.
    bool quiescent() const override {
        return config_.max_packets != 0 && offered_ >= config_.max_packets;
    }

    /// Decoupled free-run gate: this shard may execute local cycle `t`
    /// without a rendezvous as long as the worst-case occupancy bound
    /// (consumer's committed snapshot + our not-yet-drained pushes) leaves
    /// at least one tick's worth of slack below the MAC RX FIFO capacity.
    /// When the consumer has already completed cycle t-1 the snapshot is
    /// exact and lockstep admission applies, so the gate is always open.
    bool decoupled_runnable(sim::Cycle t) const override;

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

    /// Decoupled-mode endpoint (DESIGN.md §16): while a decoupled run is
    /// in flight, frames go through this latency-tagged channel instead of
    /// the direct mac_rx call. The admission mirror is exact: the
    /// channel's credit snapshot is the fabric's committed end-of-
    /// previous-cycle occupancy, and this source is the port's only
    /// writer, so adding its own same-cycle pushes reproduces mac_rx's
    /// committed+staged check byte-for-byte. Requires the hardware
    /// reassembler to be off (the System install path enforces this).
    /// Null detaches; barrier runs always use the direct call.
    void set_cut_channel(sim::CutChannel<net::PacketPtr>* ch,
                         uint64_t mac_rx_fifo_bytes);

 private:
    bool cut_push(const net::PacketPtr& p);

    Config config_;
    sim::Stats& stats_;
    Fabric& fabric_;
    GenFn gen_;
    double tokens_ = 0.0;
    double bytes_per_cycle_;
    double pps_tokens_ = 0.0;
    double pps_per_cycle_;
    net::PacketPtr staged_;
    uint64_t offered_ = 0;
    uint64_t dropped_ = 0;

    /// Free-run admission slack: decoupled_runnable only opens a cycle when
    /// the worst-case bound leaves this much FIFO headroom, and one tick can
    /// push at most 2 wire-sizes + one cycle's tokens (~19 KB at jumbo), so
    /// the in-tick admission check can never be forced to guess.
    static constexpr uint64_t kFreeRunSlackBytes = 32 * 1024;

    sim::CutChannel<net::PacketPtr>* cut_ = nullptr;
    uint64_t cut_fifo_bytes_ = 0;
    uint64_t cut_pushed_bytes_ = 0;  ///< cumulative bytes pushed into the cut
    sim::Counter* ctr_rx_frames_ = nullptr;
    sim::Counter* ctr_rx_bytes_ = nullptr;
    sim::Counter* ctr_rx_drops_ = nullptr;
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

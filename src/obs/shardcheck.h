/// \file
/// Dynamic cross-check of the static shard-cut certificate (lint/shard.h).
///
/// The certifier proves a *minimum* forwarding latency for every net whose
/// data edge crosses a shard boundary. This recorder validates that proof
/// against reality, V&V-in-the-loop style: during an instrumented run it
/// matches every kPushOk on a cut net FIFO-order against the kPop that
/// consumes it and tracks the minimum observed pop-minus-push latency per
/// net. An observation *below* the certified bound means the static model
/// is unsound for this netlist (a combinational path was declared
/// registered) and — when `fault_on_undercut` is set — faults immediately
/// via sim::fatal, exactly like the race detector.
///
/// Host-phase events are sync actions, not cross-shard messages: a push
/// outside the tick phase resets the net's pending queue (the injection
/// bypasses the registered staging the proof is about), and a pop outside
/// tick/commit consumes its entry without a latency claim.

#ifndef ROSEBUD_OBS_SHARDCHECK_H
#define ROSEBUD_OBS_SHARDCHECK_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "lint/shard.h"
#include "sim/kernel.h"
#include "sim/telemetry.h"

namespace rosebud::obs {

/// One cut net's observed-vs-certified latency record.
struct CutLatency {
    std::string net;
    unsigned certified = 0;    ///< certified minimum lookahead (cycles)
    uint64_t messages = 0;     ///< matched push->pop pairs
    uint64_t min_latency = 0;  ///< minimum observed (valid when messages > 0)
    bool undercut = false;     ///< observed < certified at least once
};

class ShardLatencyRecorder : public sim::TelemetrySink {
 public:
    /// Watch every net with a cut *data* edge in `plan`. Events for other
    /// nets are ignored (and forwarded to `next` when chaining under a
    /// full obs::Telemetry stack).
    ShardLatencyRecorder(const sim::Kernel& kernel, const lint::ShardPlan& plan,
                         sim::TelemetrySink* next = nullptr,
                         bool fault_on_undercut = true);

    void net_event(sim::NetId net, NetEvent ev) override;
    void net_event(const std::string& net, NetEvent ev) override;
    void end_cycle(uint64_t completed) override;

    /// Per-net observations, sorted by net name.
    std::vector<CutLatency> observations() const;

    /// True while no observation has undercut its certified bound.
    bool ok() const { return !undercut_seen_; }

    size_t watched_nets() const { return nets_.size(); }

    /// Human-readable observed-vs-certified table.
    std::string report() const;

 private:
    void observe(sim::NetId net, NetEvent ev);

    struct NetState {
        std::string net;
        unsigned certified = 0;
        std::deque<uint64_t> pending;  ///< push cycles awaiting their pop
        uint64_t messages = 0;
        uint64_t min_latency = ~uint64_t(0);
        bool undercut = false;
    };

    const sim::Kernel& kernel_;
    sim::TelemetrySink* next_;
    bool fault_on_undercut_;
    bool undercut_seen_ = false;
    std::vector<NetState> nets_;      ///< watched nets, by name
    std::vector<uint32_t> watched_;   ///< by NetId: index into nets_ or kNoNet
};

/// One-call harness behind `ctest` and the CI gate: build a forwarder
/// System, certify a partition, run seeded two-port traffic with the
/// recorder attached, and report the plan plus every cut-net observation.
struct ShardCheckSpec {
    unsigned rpu_count = 8;
    unsigned shards = 2;
    uint64_t seed = 1;
    uint32_t packet_size = 256;
    double load = 0.7;
    sim::Cycle run_cycles = 20'000;
    bool fault_on_undercut = true;
};

struct ShardCheckResult {
    lint::ShardPlan plan;
    std::vector<CutLatency> cuts;
    bool ok = false;  ///< plan internally consistent and no undercuts
    uint64_t cycles = 0;
    uint64_t messages = 0;  ///< total matched cross-cut messages
};

ShardCheckResult run_shard_check(const ShardCheckSpec& spec);

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_SHARDCHECK_H

/// \file
/// Telemetry aggregator — the concrete sim::TelemetrySink.
///
/// Attached to a System, it observes every instrumented net (sim::Fifo
/// primitives plus the abstract fabric/LB links) and classifies each net's
/// every cycle into exactly one of four states:
///
///   stalled  — a producer tried to push and was refused (backpressure)
///   busy     — data moved (a push or a pop landed) and nothing blocked
///   starved  — a consumer polled an empty net and nothing moved
///   idle     — no activity at all
///
/// Priority is stalled > busy > starved > idle, evaluated once per cycle
/// from the cycle's event counts, so the classification is independent of
/// intra-cycle event order (and therefore of kernel tick-order shuffling).
/// For every net, busy + stalled + starved + idle == cycles_observed():
/// nets that first appear mid-run are backfilled with idle cycles.
///
/// Per-net state is NetId-indexed, so a typed event is an index and two
/// stores. end_cycle visits, in name order, only the nets with an event
/// this cycle plus, with VCD capture, nets whose waveform is not yet back
/// to idle. It pulls occupancy from the kernel's probes only for nets
/// whose events can change it (push, pop, kOccupancy). Every other net
/// was idle, so idle is derived rather than counted.
///
/// On top of the per-net totals the aggregator keeps:
///  * epoch time series — every `epoch_cycles` it rolls up per-component
///    busy/stall fractions and deltas of watched sim::Stats counters;
///  * an optional VCD capture — per-net occupancy and 2-bit flow state
///    signals, viewable in GTKWave (see obs/vcd.h).
///
/// The aggregator never creates sim::Stats counters, so attaching it
/// leaves System::state_fingerprint() bit-identical.

#ifndef ROSEBUD_OBS_TELEMETRY_H
#define ROSEBUD_OBS_TELEMETRY_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/vcd.h"
#include "sim/telemetry.h"

namespace rosebud {
class System;
namespace sim {
class Kernel;
class Stats;
}  // namespace sim
}  // namespace rosebud

namespace rosebud::obs {

/// Per-net flow state encoded into the 2-bit VCD `state` signal.
enum class NetState : uint8_t { kIdle = 0, kBusy = 1, kStalled = 2, kStarved = 3 };

class Telemetry : public sim::TelemetrySink {
 public:
    struct Config {
        /// Epoch length for the utilization time series (0 = no epochs).
        uint64_t epoch_cycles = 2048;
        /// Capture per-net occupancy/state waveforms (costs memory
        /// proportional to activity; off for pure stall attribution).
        bool capture_vcd = false;
        /// sim::Stats counters sampled (as per-epoch deltas) into the
        /// epoch series.
        std::vector<std::string> watch_counters;
        /// Bound on retained epochs (0 = unbounded). When the series would
        /// exceed it, adjacent epochs merge pairwise — fractions average
        /// weighted by span, counter deltas sum — so an arbitrarily long
        /// run keeps a fixed-size series at progressively coarser (but
        /// conserved) resolution.
        size_t max_epochs = 0;
    };

    /// Lifetime totals for one net.
    struct NetStats {
        uint64_t busy = 0;
        uint64_t stalled = 0;
        uint64_t starved = 0;
        uint64_t idle = 0;

        uint64_t pushes = 0;       ///< accepted pushes
        uint64_t pops = 0;
        uint64_t blocked = 0;      ///< refused pushes (may exceed stalled)
        uint64_t polls_empty = 0;  ///< empty-poll events

        size_t occ = 0;       ///< latest committed occupancy
        size_t peak_occ = 0;
        size_t capacity = 0;  ///< declared/observed capacity (0 = eventless link)

        uint64_t cycles() const { return busy + stalled + starved + idle; }
        bool operator==(const NetStats&) const = default;
    };

    /// One closed epoch of the utilization time series.
    struct Epoch {
        uint64_t end_cycle = 0;  ///< cycles_observed() when the epoch closed
        /// Base epochs folded into this entry (1 until Config::max_epochs
        /// coarsening kicks in; an odd-length series merges its tail into
        /// non-power-of-two spans, but the spans always sum to the number
        /// of base epochs closed).
        uint64_t span = 1;
        /// Per-component fraction of net-cycles spent busy / stalled
        /// (averaged over the component's instrumented nets).
        std::map<std::string, double> busy_frac;
        std::map<std::string, double> stall_frac;
        /// Watched counter deltas over this epoch.
        std::map<std::string, uint64_t> counter_delta;

        bool operator==(const Epoch&) const = default;
    };

    Telemetry();
    explicit Telemetry(Config cfg);
    ~Telemetry() override;

    /// Start observing: registers with the System's kernel (replacing any
    /// previous sink) and pre-seeds one NetStats per declared net so fully
    /// idle nets still appear in reports with exact idle counts. The
    /// Telemetry must outlive the system's remaining simulation or call
    /// detach() first.
    void attach(System& sys);
    void detach();

    // sim::TelemetrySink interface.
    void net_event(sim::NetId net, NetEvent ev) override;
    /// By-name adapter: resolves the name through the attached kernel.
    void net_event(const std::string& net, NetEvent ev) override;
    void end_cycle(uint64_t completed) override;

    /// Cycles classified so far (== every net's four-bucket sum).
    uint64_t cycles_observed() const { return cycles_observed_; }

    /// Per-net totals keyed by net name, idle counts filled in.
    std::map<std::string, NetStats> nets() const;
    const std::vector<Epoch>& epochs() const { return epochs_; }

    /// Waveform capture (empty unless Config::capture_vcd).
    const VcdWriter& vcd() const { return vcd_; }

 private:
    static constexpr uint32_t kUntracked = ~uint32_t(0);

    /// The per-net state an event touches, kept small and apart.
    struct Hot {
        uint32_t rank = kUntracked;  ///< position in name order (visit_ bit)
        /// This cycle's events, by NetEvent; folded in at the visit.
        uint32_t events[size_t(NetEvent::kOccupancy) + 1] = {};
    };

    /// The rest of an observed net; `st.idle` stays 0 (nets() derives it).
    struct Slot {
        NetStats st;
        std::string name;

        // Current-epoch accumulators.
        uint64_t e_busy = 0;
        uint64_t e_stalled = 0;

        // Waveform state.
        int sig_occ = -1;
        int sig_state = -1;
        unsigned last_state = 255;  ///< 255 = never emitted
        uint64_t last_occ = ~0ull;
    };

    void track(sim::NetId id);
    void sync_nets();
    void mark(uint32_t rank) { visit_[rank >> 6] |= uint64_t(1) << (rank & 63); }
    void visit(sim::NetId id, uint64_t completed);
    void close_epoch();
    void coarsen_epochs();
    void capture_net(Slot& s, NetState state, uint64_t completed_cycle);

    Config cfg_;
    sim::Kernel* kernel_ = nullptr;
    sim::Stats* stats_ = nullptr;
    std::vector<Hot> hot_;            ///< by NetId
    std::vector<Slot> slots_;         ///< by NetId
    std::vector<sim::NetId> order_;   ///< tracked ids; by name unless resort_
    std::vector<uint64_t> visit_;     ///< rank bitset: nets to visit at end_cycle
    bool resort_ = false;             ///< order_ grew or probes changed
    uint64_t synced_net_epoch_ = ~uint64_t(0);  ///< kernel net_epoch() seen
    std::vector<Epoch> epochs_;
    std::map<std::string, uint64_t> counter_prev_;
    uint64_t cycles_observed_ = 0;
    VcdWriter vcd_;
};

}  // namespace rosebud::obs

#endif  // ROSEBUD_OBS_TELEMETRY_H

/// \file
/// Multi-board cluster building blocks: the flow-consistent ECMP
/// front-end sharder and the modeled 100G inter-board link.
///
/// A Rosebud cluster (ROADMAP item 1) is N boards, each a full System,
/// joined by a front-end packet sharder — the deployment the paper
/// sketches for scaling one middlebox past a single FPGA. Two properties
/// make the cluster simulable as N *independent* board runs:
///
///  * the front-end assigns packets to boards by a pure function of the
///    flow 5-tuple (ECMP-style), so every flow's packets — and therefore
///    every reassembly / reorder / NAT-binding decision — land on exactly
///    one board, in order;
///  * the shipped dataplanes never originate board-to-board traffic
///    (each board forwards to its own egress MAC), so the only
///    inter-board influence is the front-end fan-out itself.
///
/// Given that, a board's architectural evolution is bit-identical to a
/// standalone single-board run fed the same flow subset — which is the
/// cluster equivalence gate bench_cluster enforces — and the inter-board
/// links only shape *when* bytes arrive, which the InterBoardLink model
/// accounts for without coupling the boards' cycle loops.

#ifndef ROSEBUD_DIST_CLUSTER_H
#define ROSEBUD_DIST_CLUSTER_H

#include <cstdint>
#include <vector>

#include "dist/traffic.h"
#include "net/packet.h"
#include "sim/kernel.h"

namespace rosebud::dist {

/// Flow-consistent ECMP front-end: board = flow_hash(5-tuple) mod boards.
/// Deterministic and stateless per packet, so the same packet stream
/// always shards identically — the property the per-board fingerprint
/// equivalence gate rests on. Non-IP frames hash over their first bytes
/// (packet_flow_hash's fallback), still a pure function of content.
class EcmpSharder {
 public:
    explicit EcmpSharder(unsigned boards);

    /// Board index for one frame; records per-board byte/frame counts.
    unsigned route(const net::Packet& pkt);

    /// Pure routing decision with no accounting (for filters that ask
    /// "is this frame mine?" without owning the sharder's stats).
    unsigned board_for(const net::Packet& pkt) const;

    unsigned boards() const { return boards_; }
    uint64_t frames(unsigned board) const { return frames_.at(board); }
    uint64_t bytes(unsigned board) const { return bytes_.at(board); }
    uint64_t total_frames() const;

    /// Largest/smallest per-board frame share (balance diagnostic).
    double imbalance() const;

 private:
    unsigned boards_;
    std::vector<uint64_t> frames_;
    std::vector<uint64_t> bytes_;
};

/// The frames of `upstream` that `sharder` routes to `board`, in order:
/// frames for other boards are drawn and dropped, so every board fed a
/// copy of the same port stream sees exactly its front-end share. The
/// filter keeps its own copy of `sharder` and asks only board_for().
TrafficSource::GenFn board_filter(TrafficSource::GenFn upstream,
                                  const EcmpSharder& sharder, unsigned board);

/// Offline token-bucket model of one 100G front-end-to-board link with a
/// fixed propagation/SerDes latency. `transfer` answers "when does a
/// frame offered at cycle T finish arriving board-side?" — serialization
/// at line rate behind any queued predecessors, plus the base latency.
/// The model never back-pressures the simulation (the front end is
/// provisioned at line rate); instead it reports utilization and the
/// worst queueing excursion so bench_cluster can show whether the
/// modeled links would have been the bottleneck.
class InterBoardLink {
 public:
    struct Config {
        double gbps = 100.0;          ///< link rate
        sim::Cycle base_latency = 175;  ///< SerDes + cable + MAC, in cycles
    };

    InterBoardLink();
    explicit InterBoardLink(const Config& cfg);

    /// Model one frame handoff: returns the board-side arrival cycle.
    sim::Cycle transfer(sim::Cycle now, uint32_t bytes);

    uint64_t frames() const { return frames_; }
    uint64_t bytes_carried() const { return bytes_; }
    /// Worst (arrival - offered) across all frames, in cycles.
    sim::Cycle worst_latency() const { return worst_latency_; }
    /// Fraction of [0, now] the link spent serializing, given the last
    /// observed offer cycle. Serialization queued past `now` is not
    /// counted, so the fraction never exceeds 1.
    double utilization(sim::Cycle now) const;

 private:
    Config cfg_;
    double bytes_per_cycle_;
    sim::Cycle next_free_ = 0;  ///< cycle the serializer next goes idle
    uint64_t frames_ = 0;
    uint64_t bytes_ = 0;
    sim::Cycle busy_cycles_ = 0;
    sim::Cycle worst_latency_ = 0;
};

}  // namespace rosebud::dist

#endif  // ROSEBUD_DIST_CLUSTER_H

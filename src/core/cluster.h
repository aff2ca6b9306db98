/// \file
/// Multi-board cluster simulation harness (ROADMAP item 1, DESIGN.md §16).
///
/// Simulates N Rosebud boards behind the flow-consistent ECMP front end
/// (dist::EcmpSharder) joined by modeled 100G inter-board links
/// (dist::InterBoardLink). Because the front end shards by flow and the
/// shipped dataplanes never originate board-to-board traffic, the boards
/// are *independent shard groups*: each board's architectural evolution
/// is bit-identical to a standalone single-board run fed the same flow
/// subset. run_cluster exploits exactly that — every board runs as its
/// own System (time-decoupled over the certified ShardPlan when
/// requested) and the harness proves the equivalence by fingerprinting
/// each board against a serial reference run of the same subset (tuned,
/// timed sleep off: the blessed speedups' regime).
///
/// The reported speedup is the honest 1-host-thread metric: the summed
/// host time of the per-board serial reference runs divided by the total
/// wall time of the cluster pass (install + decoupled runs). The
/// inter-board links are accounted offline: the front-end stream is
/// replayed through the sharder and a per-board link model, yielding
/// utilization and worst-case added latency without coupling the boards'
/// cycle loops.

#ifndef ROSEBUD_CORE_CLUSTER_H
#define ROSEBUD_CORE_CLUSTER_H

#include <cstdint>
#include <vector>

#include "dist/cluster.h"
#include "sim/shard.h"

namespace rosebud::exp {

struct ClusterParams {
    unsigned boards = 2;
    unsigned rpu_count = 16;
    /// Per-board time-decoupled shard count (0 or 1 = the timed-sleep
    /// tuned kernel on every board; still simulated board-by-board).
    unsigned decouple_shards = 4;
    unsigned shard_workers = 1;
    /// How decoupled shards map onto host threads (kAuto: coop scheduling
    /// on a single hardware thread, one thread per shard otherwise).
    sim::ShardSpec::Exec exec = sim::ShardSpec::Exec::kAuto;

    unsigned ports = 2;          ///< external 100G ports per board
    uint32_t packet_size = 256;  ///< synthetic trace frame size
    double load = 0.005;         ///< per-board per-port fraction of line
    uint64_t seed = 1;
    sim::Cycle warmup = 2'000;
    sim::Cycle window = 60'000;

    dist::InterBoardLink::Config link;  ///< front-end-to-board link model
};

struct ClusterBoardResult {
    uint64_t fingerprint = 0;            ///< decoupled (cluster) run
    uint64_t reference_fingerprint = 0;  ///< serial standalone reference run
    bool fingerprint_match = false;
    uint64_t frames = 0;  ///< delivered over the measurement window
    uint64_t bytes = 0;
    double gbps = 0;             ///< per-board goodput over the window
    double host_s = 0;           ///< cluster-pass host time for this board
    double reference_host_s = 0; ///< serial reference host time
    double link_utilization = 0;
    sim::Cycle link_worst_latency = 0;  ///< worst modeled added latency
};

struct ClusterResult {
    std::vector<ClusterBoardResult> boards;
    double aggregate_gbps = 0;  ///< sum of per-board window goodputs
    double serial_host_s = 0;   ///< sum of per-board serial reference times
    double cluster_host_s = 0;  ///< total wall of the cluster pass
    double speedup = 0;         ///< serial_host_s / cluster_host_s
    bool fingerprints_match = false;  ///< every board bit-identical
    /// True when the time-decoupled executor actually installed on the
    /// cluster-pass boards (or when none was requested). False means the
    /// cluster ran, correctly, on the serial fallback — the speedup
    /// column is then measuring nothing.
    bool decoupled_active = false;
    uint64_t sharded_frames = 0;      ///< front-end frames routed
    double sharder_imbalance = 0;     ///< max board share vs fair share - 1
};

/// Run the cluster simulation: model the front end, then per board run a
/// serial reference followed by the cluster-configuration run, and
/// gate the fingerprints against each other.
ClusterResult run_cluster(const ClusterParams& p);

}  // namespace rosebud::exp

#endif  // ROSEBUD_CORE_CLUSTER_H

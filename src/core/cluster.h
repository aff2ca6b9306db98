/// \file
/// Multi-board cluster simulation harness (DESIGN.md §16).
///
/// Simulates N Rosebud boards behind the flow-consistent ECMP front end
/// (dist::EcmpSharder) joined by modeled 100G inter-board links
/// (dist::InterBoardLink). Because the front end shards by flow and the
/// shipped dataplanes never originate board-to-board traffic, the boards
/// are *independent*: each board's architectural evolution
/// is bit-identical to a standalone single-board run fed the same flow
/// subset. run_cluster exploits exactly that — every board runs as its
/// own System on the default kernel (tuned, timed sleep on) and the
/// harness proves the equivalence by fingerprinting each board against a
/// reference run of the same subset (tuned, timed sleep off: the blessed
/// speedups' regime).
///
/// The reported speedup is the honest 1-host-thread metric: the summed
/// host time of the per-board reference runs divided by the summed host
/// time of the cluster pass. The inter-board links are accounted offline: the front-end stream is
/// replayed through the sharder and a per-board link model, yielding
/// utilization and worst-case added latency without coupling the boards'
/// cycle loops.

#ifndef ROSEBUD_CORE_CLUSTER_H
#define ROSEBUD_CORE_CLUSTER_H

#include <cstdint>
#include <vector>

#include "dist/cluster.h"

namespace rosebud::exp {

struct ClusterParams {
    unsigned boards = 2;
    unsigned rpu_count = 16;

    unsigned ports = 2;          ///< external 100G ports per board
    uint32_t packet_size = 256;  ///< synthetic trace frame size
    double load = 0.005;         ///< per-board per-port fraction of line
    uint64_t seed = 1;
    sim::Cycle warmup = 2'000;
    sim::Cycle window = 60'000;

    dist::InterBoardLink::Config link;  ///< front-end-to-board link model
};

struct ClusterBoardResult {
    uint64_t fingerprint = 0;            ///< cluster (default-kernel) run
    uint64_t reference_fingerprint = 0;  ///< timed-sleep-off reference run
    bool fingerprint_match = false;
    uint64_t frames = 0;  ///< delivered over the measurement window
    uint64_t bytes = 0;
    double gbps = 0;             ///< per-board goodput over the window
    double host_s = 0;           ///< cluster-pass host time for this board
    double reference_host_s = 0; ///< reference-run host time
    double link_utilization = 0;
    sim::Cycle link_worst_latency = 0;  ///< worst modeled added latency
};

struct ClusterResult {
    std::vector<ClusterBoardResult> boards;
    double aggregate_gbps = 0;  ///< sum of per-board window goodputs
    double serial_host_s = 0;   ///< sum of per-board reference times
    double cluster_host_s = 0;  ///< sum of per-board cluster-pass times
    double speedup = 0;         ///< serial_host_s / cluster_host_s
    bool fingerprints_match = false;  ///< every board bit-identical
    uint64_t sharded_frames = 0;      ///< front-end frames routed
    double sharder_imbalance = 0;     ///< max board share vs fair share - 1
};

/// Run the cluster simulation: model the front end, then per board run a
/// timed-sleep-off reference followed by the default-kernel run, and
/// gate the fingerprints against each other.
ClusterResult run_cluster(const ClusterParams& p);

}  // namespace rosebud::exp

#endif  // ROSEBUD_CORE_CLUSTER_H

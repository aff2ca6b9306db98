/// \file
/// The multi-board cluster: the front-end models (ECMP sharder, inter-board
/// link) and run_cluster's per-board equivalence gate — every board, run
/// on the default kernel, must reach exactly the fingerprint of its
/// standalone timed-sleep-off reference run.

#include <gtest/gtest.h>

#include "core/cluster.h"
#include "dist/cluster.h"
#include "net/flow.h"
#include "net/tracegen.h"

namespace rosebud {
namespace {

// --- cluster front-end models ----------------------------------------------

TEST(Cluster, EcmpSharderIsFlowConsistent) {
    dist::EcmpSharder sharder(4);
    net::TrafficSpec tspec;
    tspec.packet_size = 256;
    tspec.seed = 99;
    net::TraceGenerator gen(tspec, nullptr, nullptr);
    for (int i = 0; i < 2'000; ++i) {
        net::PacketPtr pkt = gen.next();
        ASSERT_TRUE(pkt);
        const unsigned board = sharder.route(*pkt);
        ASSERT_LT(board, 4u);
        // Pure lookup agrees with the accounting route, and repeating
        // either is stable — the flow-consistency contract.
        EXPECT_EQ(board, sharder.board_for(*pkt));
        EXPECT_EQ(board, net::packet_flow_hash(*pkt) % 4);
    }
    EXPECT_EQ(sharder.total_frames(), 2'000u);
    // Many flows must spread over every board without gross imbalance.
    EXPECT_LT(sharder.imbalance(), 0.5);
}

TEST(Cluster, InterBoardLinkModelsSerializationAndQueueing) {
    dist::InterBoardLink::Config cfg;
    cfg.gbps = 100.0;
    cfg.base_latency = 175;
    dist::InterBoardLink link(cfg);

    // 100G at 250 MHz moves 50 B/cycle: a 500 B frame serializes in 10.
    const sim::Cycle first = link.transfer(1'000, 500);
    EXPECT_EQ(first, 1'000 + 10 + 175);
    // A same-cycle second frame queues behind the first serialization.
    const sim::Cycle second = link.transfer(1'000, 500);
    EXPECT_EQ(second, first + 10);
    EXPECT_EQ(link.frames(), 2u);
    EXPECT_EQ(link.bytes_carried(), 1'000u);
    EXPECT_GE(link.worst_latency(), 175u);
    const double util = link.utilization(2'000);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST(Cluster, InterBoardLinkUtilizationNeverExceedsOne) {
    dist::InterBoardLink link;  // 100G: 50 B/cycle
    // 100 frames of 500 B offered over [0, 100) need 1'000 cycles of
    // serialization: 900 of them are still queued at cycle 100.
    for (sim::Cycle t = 0; t < 100; ++t) link.transfer(t, 500);
    EXPECT_DOUBLE_EQ(link.utilization(100), 1.0);
    EXPECT_DOUBLE_EQ(link.utilization(500), 1.0);
    // Once the queue drains, the busy share falls below 1.
    EXPECT_DOUBLE_EQ(link.utilization(2'000), 0.5);
}

TEST(Cluster, TwoBoardFingerprintsMatchSingleBoardReferences) {
    exp::ClusterParams p;
    p.boards = 2;
    p.rpu_count = 8;
    p.warmup = 1'000;
    p.window = 8'000;
    const exp::ClusterResult res = exp::run_cluster(p);
    ASSERT_EQ(res.boards.size(), 2u);
    EXPECT_TRUE(res.fingerprints_match);
    EXPECT_GT(res.aggregate_gbps, 0.0);
    EXPECT_GT(res.sharded_frames, 0u);
    for (const exp::ClusterBoardResult& b : res.boards) {
        EXPECT_TRUE(b.fingerprint_match);
        EXPECT_EQ(b.fingerprint, b.reference_fingerprint);
    }
}

}  // namespace
}  // namespace rosebud

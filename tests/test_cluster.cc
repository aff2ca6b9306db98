/// \file
/// The multi-board cluster: the front-end models (ECMP sharder, inter-board
/// link) and run_cluster's per-board equivalence gate — every board, run
/// on the default kernel, must reach exactly the fingerprint of its
/// standalone timed-sleep-off reference run.

#include <gtest/gtest.h>

#include <map>
#include <memory>

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

/// The per-board filters over one port stream must split it exactly as
/// the front end routes it. The per-board fingerprint gate cannot catch a
/// filter that hands a board the wrong flows: at low load the forwarder
/// reaches the same fingerprint whichever flows a board gets.
TEST(Cluster, BoardSubsetsPartitionThePortStream) {
    constexpr unsigned kBoards = 4;
    constexpr uint64_t kFrames = 2'000;
    net::TrafficSpec tspec;
    tspec.packet_size = 256;
    tspec.seed = 1u * 2654435761u;
    // A fresh, finite copy of the port stream per consumer.
    auto port_stream = [&] {
        auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
        auto drawn = std::make_shared<uint64_t>(0);
        return dist::TrafficSource::GenFn([gen, drawn]() -> net::PacketPtr {
            return (*drawn)++ < kFrames ? gen->next() : nullptr;
        });
    };

    std::map<uint64_t, net::PacketPtr> unfiltered;
    dist::TrafficSource::GenFn all = port_stream();
    while (net::PacketPtr pkt = all()) unfiltered.emplace(pkt->id, pkt);
    ASSERT_EQ(unfiltered.size(), kFrames);

    const dist::EcmpSharder sharder(kBoards);
    std::map<uint64_t, unsigned> owner;
    for (unsigned b = 0; b < kBoards; ++b) {
        dist::TrafficSource::GenFn mine = dist::board_filter(port_stream(), sharder, b);
        uint64_t got = 0;
        while (net::PacketPtr pkt = mine()) {
            ++got;
            EXPECT_EQ(sharder.board_for(*pkt), b) << "frame " << pkt->id;
            auto [it, fresh] = owner.emplace(pkt->id, b);
            EXPECT_TRUE(fresh) << "frame " << pkt->id << " reached boards "
                               << it->second << " and " << b;
            auto ref = unfiltered.find(pkt->id);
            ASSERT_NE(ref, unfiltered.end()) << "frame " << pkt->id;
            EXPECT_EQ(pkt->data, ref->second->data) << "frame " << pkt->id;
        }
        EXPECT_GT(got, 0u) << "board " << b << " received nothing";
    }
    // Disjoint (checked above) and covering: the union is the whole stream.
    EXPECT_EQ(owner.size(), unfiltered.size());
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

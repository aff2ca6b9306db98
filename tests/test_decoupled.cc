/// \file
/// Lockstep equivalence suite for the time-decoupled kernel (DESIGN.md §16)
/// plus the cluster front-end models built on it.
///
/// The load-bearing property is bit-identical final state: a decoupled run
/// over a certified ShardPlan must reach exactly the fingerprint the
/// barrier-synchronous kernel reaches on the same workload, for every
/// shard count, executor mode, and threaded-tick composition — and the
/// dynamic cross-checks must actually catch a lookahead claim the runtime
/// does not honor (the negative direction, without which the positive
/// tests prove nothing).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/system.h"
#include "dist/cluster.h"
#include "firmware/programs.h"
#include "lint/shard.h"
#include "net/flow.h"
#include "net/tracegen.h"
#include "obs/shardcheck.h"
#include "sim/shard.h"

namespace rosebud {
namespace {

constexpr sim::Cycle kRun = 10'000;

struct RunResult {
    uint64_t fingerprint = 0;
    uint64_t sink_frames = 0;
    uint64_t sink_bytes = 0;
    std::vector<double> latency;  ///< per delivered frame (filled on request)
    bool decoupled = false;
};

std::unique_ptr<System> build_system(unsigned rpus, bool hw_reassembler = false,
                                     double load = 0.7) {
    SystemConfig cfg;
    cfg.rpu_count = rpus;
    cfg.hw_reassembler = hw_reassembler;
    auto sys = std::make_unique<System>(cfg);
    fwlib::Program fw = fwlib::forwarder();
    sys->host().load_firmware_all(fw.image, fw.entry);
    sys->host().boot_all();
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec tspec;
        tspec.packet_size = 256;
        tspec.seed = 7u * 2654435761u + port;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
        dist::TrafficSource::Config src;
        src.port = port;
        src.load = load;
        sys->add_source(src, [gen] { return gen->next(); });
    }
    return sys;
}

RunResult run_workload(unsigned shards, unsigned workers,
                       sim::ShardSpec::Exec exec, sim::Cycle cycles = kRun,
                       bool hw_reassembler = false) {
    std::unique_ptr<System> sys = build_system(8, hw_reassembler);
    if (shards > 1) {
        sys->set_decouple_exec(exec);
        sys->set_decouple_shards(shards, workers);
    }
    sys->run_cycles(cycles);
    RunResult r;
    r.fingerprint = sys->state_fingerprint();
    for (unsigned port = 0; port < 2; ++port) {
        r.sink_frames += sys->sink(port).frames();
        r.sink_bytes += sys->sink(port).bytes();
    }
    r.decoupled = sys->decoupled_active();
    return r;
}

// --- lockstep equivalence: barrier vs time-decoupled ------------------------

TEST(Decoupled, EquivalenceAcrossShardCountsAndExecutors) {
    const RunResult barrier = run_workload(0, 0, sim::ShardSpec::Exec::kAuto);
    ASSERT_GT(barrier.sink_frames, 0u);

    struct Case {
        unsigned shards;
        unsigned workers;
        sim::ShardSpec::Exec exec;
        const char* name;
    };
    const Case cases[] = {
        {2, 1, sim::ShardSpec::Exec::kCoop, "2-shard coop"},
        {4, 1, sim::ShardSpec::Exec::kCoop, "4-shard coop"},
        {2, 1, sim::ShardSpec::Exec::kThreads, "2-shard threads"},
        {4, 1, sim::ShardSpec::Exec::kThreads, "4-shard threads"},
        // Threaded-tick composition: the DUT shard's tick phase split
        // over 2 workers on top of the decoupled schedule.
        {4, 2, sim::ShardSpec::Exec::kThreads, "4-shard 2-worker threads"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const RunResult dec = run_workload(c.shards, c.workers, c.exec);
        EXPECT_TRUE(dec.decoupled)
            << "decoupled executor failed to install for " << c.name;
        EXPECT_EQ(dec.fingerprint, barrier.fingerprint);
        EXPECT_EQ(dec.sink_frames, barrier.sink_frames);
        EXPECT_EQ(dec.sink_bytes, barrier.sink_bytes);
    }
}

TEST(Decoupled, ShardsOneIsTheNullPlan) {
    const RunResult barrier = run_workload(0, 0, sim::ShardSpec::Exec::kAuto);
    const RunResult null_plan = run_workload(1, 0, sim::ShardSpec::Exec::kAuto);
    EXPECT_FALSE(null_plan.decoupled);
    EXPECT_EQ(null_plan.fingerprint, barrier.fingerprint);
    EXPECT_EQ(null_plan.sink_frames, barrier.sink_frames);
}

TEST(Decoupled, HwReassemblerFallsBackToBarrier) {
    // The inline reorder engine is a structural obstacle: the request must
    // warn, fall back, and still produce the barrier kernel's exact state.
    const RunResult barrier =
        run_workload(0, 0, sim::ShardSpec::Exec::kAuto, kRun, true);
    const RunResult dec =
        run_workload(4, 1, sim::ShardSpec::Exec::kCoop, kRun, true);
    EXPECT_FALSE(dec.decoupled);
    EXPECT_EQ(dec.fingerprint, barrier.fingerprint);
}

// --- negative: a lookahead claim the runtime does not honor is caught -------

TEST(Decoupled, UnderstatedLookaheadIsCaught) {
    // Doctor a certified plan so every cut data edge claims far more
    // lookahead than the netlist actually provides, then let the dynamic
    // recorder watch a barrier run. If the cross-check cannot flag this
    // fabricated certificate, it could not flag a real certifier bug
    // either.
    std::unique_ptr<System> sys = build_system(8);
    lint::ShardPlan plan = sys->shard_plan(2);
    ASSERT_TRUE(plan.sound);
    ASSERT_FALSE(plan.cuts.empty());
    for (lint::ShardCut& c : plan.cuts) c.edge.latency += 99;

    obs::ShardLatencyRecorder rec(sys->kernel(), plan, nullptr,
                                  /*fault_on_undercut=*/false);
    sys->kernel().set_telemetry(&rec);
    sys->run_cycles(kRun);
    sys->kernel().set_telemetry(nullptr);

    EXPECT_FALSE(rec.ok());
    bool undercut_seen = false;
    for (const obs::CutLatency& c : rec.observations())
        if (c.undercut) undercut_seen = true;
    EXPECT_TRUE(undercut_seen);
}

TEST(Decoupled, CutChannelStatsExposeEarlyRelease) {
    // Channel-level version of the same property: the decoupled pass of
    // obs::run_shard_check trips on min_latency < certified, so a drain
    // that releases an entry before the certified bound must be visible
    // in the stats.
    sim::CutChannel<int> good("good.net", 3);
    good.push(10, 1);
    good.drain_upto(12, [](sim::Cycle, int) {});  // released at 13: lat 3
    EXPECT_GE(good.stats().min_latency, good.stats().certified);

    sim::CutChannel<int> bad("bad.net", 3);
    bad.push(10, 1);
    bad.drain_upto(10, [](sim::Cycle, int) {});  // released at 11: lat 1
    const sim::CutChannelStats st = bad.stats();
    EXPECT_EQ(st.delivered, 1u);
    EXPECT_LT(st.min_latency, st.certified);
}

TEST(Decoupled, ShardCheckDecoupledPass) {
    obs::ShardCheckSpec spec;
    spec.rpu_count = 8;
    spec.shards = 2;
    spec.decouple = 2;
    spec.run_cycles = 8'000;
    const obs::ShardCheckResult res = obs::run_shard_check(spec);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.decoupled_ran);
    EXPECT_TRUE(res.decoupled_ok);
    EXPECT_EQ(res.decoupled_fingerprint, res.barrier_fingerprint);
    ASSERT_FALSE(res.channels.empty());
    uint64_t delivered = 0;
    for (const sim::CutChannelStats& ch : res.channels) {
        delivered += ch.delivered;
        if (ch.delivered > 0) {
            EXPECT_GE(ch.min_latency, ch.certified);
        }
    }
    EXPECT_GT(delivered, 0u);
}

// --- entry from the timed-sleep serial kernel --------------------------------

TEST(Decoupled, EntryWakesTimerSleepers) {
    // Low load: between frames both sources sleep on timers in the serial
    // kernel. Entering a decoupled run right then must hand their windows
    // to the shard runner without losing or repeating a token add.
    auto run = [](bool decouple) {
        std::unique_ptr<System> sys = build_system(8, false, 0.005);
        sys->run_cycles(2'000);
        auto sleeping_sources = [&] {
            unsigned n = 0;
            for (sim::Component* c : sys->kernel().components())
                if (dynamic_cast<dist::TrafficSource*>(c) && !c->awake()) ++n;
            return n;
        };
        for (int i = 0; i < 5'000 && sleeping_sources() < 2; ++i)
            sys->run_cycles(1);
        EXPECT_EQ(sleeping_sources(), 2u);
        EXPECT_NE(sys->kernel().next_timer(), sim::kForever);
        if (decouple) {
            sys->set_decouple_exec(sim::ShardSpec::Exec::kCoop);
            sys->set_decouple_shards(4, 1);
        }
        sys->run_cycles(30'000);
        RunResult r;
        r.fingerprint = sys->state_fingerprint();
        r.decoupled = sys->decoupled_active();
        for (unsigned port = 0; port < 2; ++port) {
            r.sink_frames += sys->sink(port).frames();
            r.sink_bytes += sys->sink(port).bytes();
            // Frame timestamps come from the replayed token buckets.
            for (double v : sys->sink(port).latency().samples())
                r.latency.push_back(v);
        }
        return r;
    };
    const RunResult barrier = run(false);
    const RunResult dec = run(true);
    ASSERT_GT(barrier.sink_frames, 20u);
    EXPECT_TRUE(dec.decoupled);
    EXPECT_EQ(dec.fingerprint, barrier.fingerprint);
    EXPECT_EQ(dec.sink_frames, barrier.sink_frames);
    EXPECT_EQ(dec.sink_bytes, barrier.sink_bytes);
    EXPECT_EQ(dec.latency, barrier.latency);
}

// --- certifier verdict stability (satellite: 8-way no-safe-cut) -------------

TEST(Decoupled, EightWayVerdictIsStable) {
    std::unique_ptr<System> sys = build_system(16);
    const lint::ShardPlan a = sys->shard_plan(8);
    const lint::ShardPlan b = sys->shard_plan(8);
    EXPECT_FALSE(a.sound);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_NE(a.verdict.find("no safe 8-way cut"), std::string::npos);
    EXPECT_NE(a.verdict.find("cheapest registerization"), std::string::npos);
    EXPECT_EQ(a.cheapest_registerization, b.cheapest_registerization);
    EXPECT_GE(a.unlocked_atoms, 8u);
    ASSERT_EQ(a.blockers.size(), a.blocker_multiplicity.size());
    for (unsigned m : a.blocker_multiplicity) EXPECT_GE(m, 1u);
}

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

TEST(Cluster, TwoBoardFingerprintsMatchSingleBoardReferences) {
    exp::ClusterParams p;
    p.boards = 2;
    p.rpu_count = 8;
    p.decouple_shards = 4;
    p.exec = sim::ShardSpec::Exec::kCoop;
    p.warmup = 1'000;
    p.window = 8'000;
    const exp::ClusterResult res = exp::run_cluster(p);
    ASSERT_EQ(res.boards.size(), 2u);
    EXPECT_TRUE(res.fingerprints_match);
    EXPECT_TRUE(res.decoupled_active);
    EXPECT_GT(res.aggregate_gbps, 0.0);
    EXPECT_GT(res.sharded_frames, 0u);
    for (const exp::ClusterBoardResult& b : res.boards) {
        EXPECT_TRUE(b.fingerprint_match);
        EXPECT_EQ(b.fingerprint, b.reference_fingerprint);
    }
}

}  // namespace
}  // namespace rosebud

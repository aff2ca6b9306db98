#include "core/cluster.h"

#include <chrono>
#include <memory>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/flow.h"
#include "net/tracegen.h"

namespace rosebud::exp {

namespace {

double
now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// The flow subset board `board` owns out of the global port stream: a
/// fresh TraceGenerator with the *same* seed on every board, filtered by
/// the same pure flow-hash the front-end sharder routes by. Every board
/// (and its standalone reference run) therefore sees an identical,
/// deterministic sub-stream — the bit-for-bit equivalence hinges on this.
dist::TrafficSource::GenFn
board_subset_gen(const ClusterParams& p, unsigned board, unsigned port) {
    net::TrafficSpec spec;
    spec.packet_size = p.packet_size;
    spec.seed = p.seed * 2654435761u + port;
    auto gen = std::make_shared<net::TraceGenerator>(spec, nullptr, nullptr);
    const unsigned boards = p.boards;
    return [gen, board, boards]() -> net::PacketPtr {
        for (;;) {
            net::PacketPtr pkt = gen->next();
            if (!pkt) return pkt;
            if (net::packet_flow_hash(*pkt) % boards == board) return pkt;
        }
    };
}

struct BoardRun {
    uint64_t fingerprint = 0;
    uint64_t frames = 0;
    uint64_t bytes = 0;
    double gbps = 0;
    double host_s = 0;  ///< measured over warmup+window, install excluded
    bool decoupled_active = false;
};

/// One board's full run: identical construction and cycle schedule for
/// the serial reference and the cluster configuration, so the final
/// fingerprints are comparable bit for bit. The reference turns timed
/// sleep off (the blessed baselines' regime). Host time is measured
/// after the decoupled install (run_cycles(0) retries the latent request)
/// — certification cost is a one-time setup, not simulation throughput.
BoardRun
run_board(const ClusterParams& p, unsigned board, bool reference) {
    SystemConfig cfg;
    cfg.rpu_count = p.rpu_count;
    System sys(cfg);
    sys.kernel().set_idle_skip(true);
    sys.kernel().set_timed_sleep(!reference);
    for (unsigned i = 0; i < sys.rpu_count(); ++i)
        sys.rpu(i).core().set_predecode(true);
    if (!reference && p.decouple_shards > 1) {
        sys.set_decouple_exec(p.exec);
        sys.set_decouple_shards(p.decouple_shards, p.shard_workers);
    }

    auto fw = fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();
    sys.run_cycles(500);
    for (unsigned port = 0; port < p.ports; ++port) {
        sys.add_source({.port = port, .line_gbps = 100.0, .load = p.load},
                       board_subset_gen(p, board, port));
    }
    sys.run_cycles(0);  // install the decoupled executor outside the timing

    double t0 = now_s();
    sys.run_cycles(p.warmup);
    for (unsigned port = 0; port < p.ports; ++port)
        sys.sink(port).start_window();
    sys.run_cycles(p.window);

    BoardRun out;
    out.host_s = now_s() - t0;
    out.decoupled_active = sys.decoupled_active();
    out.fingerprint = sys.state_fingerprint();
    for (unsigned port = 0; port < p.ports; ++port) {
        out.frames += sys.sink(port).window_frames();
        out.bytes += sys.sink(port).window_bytes();
    }
    out.gbps = double(out.bytes) * 8.0 / (double(p.window) / sim::kClockHz) / 1e9;
    return out;
}

}  // namespace

ClusterResult
run_cluster(const ClusterParams& p) {
    ClusterResult res;
    res.boards.resize(p.boards);

    // Front-end model: replay the aggregate per-port stream through the
    // ECMP sharder and one modeled link per board. Offered arrival times
    // follow the aggregate rate (N boards x load x line per port); the
    // links never back-pressure the boards — the model answers "would the
    // interconnect have been the bottleneck, and how much latency does it
    // add" for the report.
    {
        dist::EcmpSharder sharder(p.boards);
        std::vector<dist::InterBoardLink> links(p.boards,
                                                dist::InterBoardLink(p.link));
        const double agg_bpc =
            p.boards * p.load * 100.0 * 1e9 / 8.0 / sim::kClockHz;
        const sim::Cycle horizon = p.warmup + p.window;
        const uint64_t kFrameCap = 200'000;
        // The external ports share one timeline: each board's ingress
        // link carries that board's share of *every* port, so the port
        // streams are merged in offer-time order, not replayed one after
        // the other.
        std::vector<std::unique_ptr<net::TraceGenerator>> gens;
        std::vector<double> next_t(p.ports, 0.0);
        for (unsigned port = 0; port < p.ports; ++port) {
            net::TrafficSpec spec;
            spec.packet_size = p.packet_size;
            spec.seed = p.seed * 2654435761u + port;
            gens.push_back(
                std::make_unique<net::TraceGenerator>(spec, nullptr, nullptr));
        }
        while (sharder.total_frames() < kFrameCap) {
            unsigned port = 0;
            for (unsigned q = 1; q < p.ports; ++q)
                if (next_t[q] < next_t[port]) port = q;
            if (sim::Cycle(next_t[port]) >= horizon) break;
            net::PacketPtr pkt = gens[port]->next();
            if (!pkt) break;
            unsigned b = sharder.route(*pkt);
            links[b].transfer(sim::Cycle(next_t[port]), pkt->size());
            next_t[port] += double(pkt->wire_size()) / agg_bpc;
        }
        res.sharded_frames = sharder.total_frames();
        res.sharder_imbalance = sharder.imbalance();
        for (unsigned b = 0; b < p.boards; ++b) {
            res.boards[b].link_utilization = links[b].utilization(horizon);
            res.boards[b].link_worst_latency = links[b].worst_latency();
        }
    }

    // Serial references: one standalone single-board run per flow
    // subset. These are both the speedup denominator inputs and the
    // ground-truth fingerprints the cluster pass must reproduce.
    for (unsigned b = 0; b < p.boards; ++b) {
        BoardRun ref = run_board(p, b, /*reference=*/true);
        res.boards[b].reference_fingerprint = ref.fingerprint;
        res.boards[b].reference_host_s = ref.host_s;
        res.serial_host_s += ref.host_s;
    }

    // Cluster pass: every board as an independent time-decoupled shard
    // group. Boards run back to back on one host thread; the summed
    // simulation time (construction and one-time certification excluded on
    // both sides, identically) is the honest single-host cluster cost.
    res.fingerprints_match = true;
    res.decoupled_active = p.decouple_shards <= 1;
    for (unsigned b = 0; b < p.boards; ++b) {
        BoardRun run = run_board(p, b, /*reference=*/false);
        ClusterBoardResult& out = res.boards[b];
        out.fingerprint = run.fingerprint;
        out.fingerprint_match = run.fingerprint == out.reference_fingerprint;
        out.frames = run.frames;
        out.bytes = run.bytes;
        out.gbps = run.gbps;
        out.host_s = run.host_s;
        res.aggregate_gbps += run.gbps;
        res.cluster_host_s += run.host_s;
        if (p.decouple_shards > 1 && run.decoupled_active)
            res.decoupled_active = true;
        if (!out.fingerprint_match) res.fingerprints_match = false;
    }
    res.speedup =
        res.cluster_host_s > 0 ? res.serial_host_s / res.cluster_host_s : 0;
    return res;
}

}  // namespace rosebud::exp

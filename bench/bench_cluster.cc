/// Multi-board cluster simulation benchmark (ROADMAP item 1).
///
/// Sweeps 1/2/4/8 boards behind the flow-consistent ECMP front end, every
/// board simulated as an independent time-decoupled shard group over the
/// certified ShardPlan (DESIGN.md §16). Reports aggregate delivered Gbps
/// and the host-time speedup of the cluster pass over per-board serial
/// tuned runs of the same flow subsets. Correctness is gated, not
/// assumed: every board's fingerprint must be bit-identical to its
/// standalone serial reference, and the decoupled executor must actually
/// have installed (a silent serial fallback would fake a 1.0x "speedup").
///
/// The serial reference is the tuned kernel with timed sleep off — the
/// regime before timed sleep — so the speedup columns and the regression
/// gate's machine-speed calibration row keep their meaning. The headline
/// row is the single-board 4-shard run: the time-decoupled coop executor
/// must beat that reference by >= 1.5x on this low-duty workload with
/// byte-identical results. The `timed-sleep` row runs the same workload on
/// the default serial kernel (timed sleep on) and must also beat the
/// reference by >= 1.5x; the decoupled-vs-timed-sleep ratio is printed,
/// gated only on fingerprints. A saturated row (load 0.7) is included for
/// honesty — when the DUT is busy every cycle there is no idle time to
/// batch away and decoupling is throughput-neutral, which the
/// PERFORMANCE.md section documents.
///
/// Set ROSEBUD_BENCH_JSON=<dir> for machine-readable rows
/// (bench/check_regression.py gates them against baselines/cluster.json).

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/cluster.h"
#ifdef ROSEBUD_SANITIZE
#include "obs/shardcheck.h"
#endif

using namespace rosebud;

namespace {

exp::ClusterParams
base_params(sim::Cycle window) {
    exp::ClusterParams p;
    p.rpu_count = 16;
    p.ports = 2;
    p.packet_size = 256;
    p.load = 0.005;  // low duty: the regime where time-skip batching pays
    p.decouple_shards = 4;
    p.shard_workers = 1;
    // The speedup is a single-host-thread claim: serial kernel vs the
    // cooperatively scheduled decoupled shards on the same thread.
    p.exec = sim::ShardSpec::Exec::kCoop;
    p.warmup = 2'000;
    p.window = window;
    return p;
}

}  // namespace

int
main(int argc, char** argv) {
    bench::JsonResults json("cluster");
    int failures = 0;

    unsigned max_boards = 8;
    sim::Cycle window = 240'000;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--boards" && i + 1 < argc) max_boards = unsigned(atoi(argv[++i]));
        else if (a == "--window" && i + 1 < argc) window = atoi(argv[++i]);
    }

    bench::heading("Cluster sweep: N boards, 2x100G/board, 256B @ load 0.005, "
                   "4-shard time-decoupled");
    std::printf("%-16s %8s %10s %10s %8s %10s %8s  %s\n", "mode", "boards",
                "agg Gbps", "serial(s)", "run(s)", "speedup", "link", "fingerprints");

    auto report = [&](const char* mode, const exp::ClusterParams& p,
                      const exp::ClusterResult& r) {
        double worst_util = 0;
        for (const auto& b : r.boards)
            if (b.link_utilization > worst_util) worst_util = b.link_utilization;
        std::printf("%-16s %8u %10.3f %10.3f %8.3f %9.2fx %7.1f%%  %s%s\n", mode,
                    p.boards, r.aggregate_gbps, r.serial_host_s, r.cluster_host_s,
                    r.speedup, 100.0 * worst_util,
                    r.fingerprints_match ? "identical" : "MISMATCH",
                    r.decoupled_active ? "" : "  [decoupled DID NOT install]");
        const uint64_t cycles = uint64_t(p.boards) * (p.warmup + p.window);
        uint64_t frames = 0;
        for (const auto& b : r.boards) frames += b.frames;
        json.row({{"workload", "cluster"},
                  {"mode", mode},
                  {"boards", std::to_string(p.boards)},
                  {"aggregate_gbps", bench::num(r.aggregate_gbps)},
                  {"host_s", bench::num(r.cluster_host_s)},
                  {"serial_s", bench::num(r.serial_host_s)},
                  {"cycles", std::to_string(cycles)},
                  {"cycles_per_s", bench::num(double(cycles) / r.cluster_host_s)},
                  {"packets_per_s", bench::num(double(frames) / r.cluster_host_s)},
                  {"speedup", bench::num(r.speedup)},
                  {"sharder_imbalance", bench::num(r.sharder_imbalance)},
                  {"link_utilization", bench::num(worst_util)},
                  {"fingerprint_match", r.fingerprints_match ? "yes" : "NO"}});
        if (!r.fingerprints_match) {
            std::fprintf(stderr,
                         "FATAL: %s per-board fingerprint diverges from its "
                         "single-board serial reference\n", mode);
            ++failures;
        }
        if (!r.decoupled_active) {
            std::fprintf(stderr,
                         "FATAL: %s ran on the serial fallback (decoupled "
                         "executor never installed)\n", mode);
            ++failures;
        }
    };

    // Best of 3 single-board runs (one-core hosts jitter; the fingerprint
    // gate applies to every rep regardless).
    auto best_of_3 = [&](const exp::ClusterParams& p, const char* first_mode) {
        exp::ClusterResult best = exp::run_cluster(p);
        if (first_mode) report(first_mode, p, best);
        for (int rep = 1; rep < 3; ++rep) {
            exp::ClusterResult again = exp::run_cluster(p);
            if (!again.fingerprints_match || !again.decoupled_active) ++failures;
            if (again.speedup > best.speedup) best = again;
        }
        return best;
    };

    // Headline: single board, 4-shard coop executor vs the serial
    // reference.
    exp::ClusterResult decoupled;
    {
        exp::ClusterParams p = base_params(window);
        p.boards = 1;
        exp::ClusterResult best = best_of_3(p, "decoupled-1st");
        decoupled = best;
        report("decoupled-4shard", p, best);
        // The serial reference pass of this row doubles as the regression
        // gate's machine-speed calibration row.
        const uint64_t cycles = p.warmup + p.window;
        json.row({{"workload", "cluster"},
                  {"mode", "reference"},
                  {"boards", "1"},
                  {"host_s", bench::num(best.serial_host_s)},
                  {"cycles", std::to_string(cycles)},
                  {"cycles_per_s",
                   bench::num(double(cycles) / best.serial_host_s)}});
        if (best.speedup < 1.5) {
            std::fprintf(stderr,
                         "FATAL: single-board 4-shard speedup %.2fx below the "
                         "1.5x floor\n", best.speedup);
            ++failures;
        }
    }

    // Timed sleep: the same single-board workload on the default serial
    // kernel (no shards) against the same timed-sleep-off reference.
    {
        exp::ClusterParams p = base_params(window);
        p.boards = 1;
        p.decouple_shards = 0;
        exp::ClusterResult best = best_of_3(p, nullptr);
        report("timed-sleep", p, best);
        if (best.speedup < 1.5) {
            std::fprintf(stderr,
                         "FATAL: single-board timed-sleep speedup %.2fx below "
                         "the 1.5x floor\n", best.speedup);
            ++failures;
        }
        // Decoupled executor vs timed sleep on the same workload: > 1 means
        // the shards still buy something over the serial kernel.
        const bool same = best.boards[0].fingerprint == decoupled.boards[0].fingerprint;
        const double ratio = best.cluster_host_s / decoupled.cluster_host_s;
        std::printf("decoupled vs timed sleep: %.2fx (timed-sleep %.4f s, "
                    "decoupled %.4f s)  fingerprints %s\n",
                    ratio, best.cluster_host_s, decoupled.cluster_host_s,
                    same ? "identical" : "MISMATCH");
        json.row({{"workload", "cluster"},
                  {"mode", "decoupled-vs-timed-sleep"},
                  {"boards", "1"},
                  {"timed_sleep_s", bench::num(best.cluster_host_s)},
                  {"decoupled_s", bench::num(decoupled.cluster_host_s)},
                  {"ratio", bench::num(ratio)},
                  {"fingerprint_match", same ? "yes" : "NO"}});
        if (!same) {
            std::fprintf(stderr, "FATAL: timed-sleep and decoupled fingerprints "
                                 "diverge\n");
            ++failures;
        }
    }

    for (unsigned boards : {2u, 4u, 8u}) {
        if (boards > max_boards) break;
        exp::ClusterParams p = base_params(window);
        p.boards = boards;
        exp::ClusterResult r = exp::run_cluster(p);
        report((std::to_string(boards) + "-board").c_str(), p, r);
    }

    // Honesty row: at saturation the DUT is busy nearly every cycle, so
    // there is no idle time for the decoupled executor to batch away —
    // expect ~1.0x, gated only on correctness.
    {
        exp::ClusterParams p = base_params(window / 4);
        p.boards = 1;
        p.load = 0.7;
        exp::ClusterResult r = exp::run_cluster(p);
        report("saturated", p, r);
    }

#ifdef ROSEBUD_SANITIZE
    // Sanitized builds also run the dynamic lookahead cross-check with a
    // decoupled pass: every cut channel's observed latency must stay at
    // or above its certified bound, and the decoupled fingerprint must
    // equal the barrier run's (obs::run_shard_check).
    {
        obs::ShardCheckSpec spec;
        spec.shards = 2;
        spec.decouple = 2;
        spec.run_cycles = 20'000;
        obs::ShardCheckResult chk = obs::run_shard_check(spec);
        std::printf("\nshard-check (sanitized, decoupled): %s\n",
                    chk.ok ? "ok" : "FAILED");
        if (!chk.ok) ++failures;
    }
#endif

    return failures == 0 ? 0 : 1;
}

/// Multi-board cluster simulation benchmark (DESIGN.md §16).
///
/// Sweeps 1/2/4/8 boards behind the flow-consistent ECMP front end, every
/// board simulated as an independent run on the default kernel (tuned,
/// timed sleep on). Reports aggregate delivered Gbps and the host-time
/// speedup of the cluster pass over per-board reference runs of the same
/// flow subsets. Correctness is gated, not assumed: every board's
/// fingerprint must be bit-identical to its standalone reference.
///
/// The reference is the tuned kernel with timed sleep off — the regime
/// before timed sleep — so the speedup columns and the regression gate's
/// machine-speed calibration row keep their meaning. Every low-load row
/// must beat that reference by >= 1.5x; the headline `timed-sleep` row is
/// the best of three single-board runs. A saturated row (load 0.7) is
/// included for honesty — when the DUT is busy every cycle there is no
/// idle time to sleep through, which the PERFORMANCE.md section documents.
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
    p.load = 0.005;  // low duty: the regime where timed sleep pays
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
                   "default kernel");
    std::printf("%-16s %8s %10s %10s %8s %10s %8s  %s\n", "mode", "boards",
                "agg Gbps", "ref(s)", "run(s)", "speedup", "link", "fingerprints");

    // `floor`: a low-load row, which must beat the reference by >= 1.5x.
    auto report = [&](const char* mode, const exp::ClusterParams& p,
                      const exp::ClusterResult& r, bool floor) {
        double worst_util = 0;
        for (const auto& b : r.boards)
            if (b.link_utilization > worst_util) worst_util = b.link_utilization;
        std::printf("%-16s %8u %10.3f %10.3f %8.3f %9.2fx %7.1f%%  %s\n", mode,
                    p.boards, r.aggregate_gbps, r.serial_host_s, r.cluster_host_s,
                    r.speedup, 100.0 * worst_util,
                    r.fingerprints_match ? "identical" : "MISMATCH");
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
                         "single-board reference\n", mode);
            ++failures;
        }
        if (floor && r.speedup < 1.5) {
            std::fprintf(stderr, "FATAL: %s speedup %.2fx below the 1.5x floor\n",
                         mode, r.speedup);
            ++failures;
        }
    };

    // Headline: best of 3 single-board runs (shared hosts jitter; the
    // fingerprint gate applies to every rep regardless).
    {
        exp::ClusterParams p = base_params(window);
        p.boards = 1;
        exp::ClusterResult best = exp::run_cluster(p);
        for (int rep = 1; rep < 3; ++rep) {
            exp::ClusterResult again = exp::run_cluster(p);
            if (!again.fingerprints_match) ++failures;
            if (again.speedup > best.speedup) best = again;
        }
        report("timed-sleep", p, best, /*floor=*/true);
        // The reference pass of this row doubles as the regression gate's
        // machine-speed calibration row.
        const uint64_t cycles = p.warmup + p.window;
        json.row({{"workload", "cluster"},
                  {"mode", "reference"},
                  {"boards", "1"},
                  {"host_s", bench::num(best.serial_host_s)},
                  {"cycles", std::to_string(cycles)},
                  {"cycles_per_s",
                   bench::num(double(cycles) / best.serial_host_s)}});
    }

    for (unsigned boards : {2u, 4u, 8u}) {
        if (boards > max_boards) break;
        exp::ClusterParams p = base_params(window);
        p.boards = boards;
        exp::ClusterResult r = exp::run_cluster(p);
        report((std::to_string(boards) + "-board").c_str(), p, r, /*floor=*/true);
    }

    // Honesty row: at saturation the DUT is busy nearly every cycle, so
    // there is no idle time to sleep through — expect ~1.0x, gated only on
    // correctness.
    {
        exp::ClusterParams p = base_params(window / 4);
        p.boards = 1;
        p.load = 0.7;
        exp::ClusterResult r = exp::run_cluster(p);
        report("saturated", p, r, /*floor=*/false);
    }

#ifdef ROSEBUD_SANITIZE
    // Sanitized builds also run the dynamic lookahead cross-check: every
    // cut net's observed latency must stay at or above its certified
    // bound (obs::run_shard_check).
    {
        obs::ShardCheckSpec spec;
        spec.shards = 2;
        spec.run_cycles = 20'000;
        obs::ShardCheckResult chk = obs::run_shard_check(spec);
        std::printf("\nshard-check (sanitized): %s\n",
                    chk.ok ? "ok" : "FAILED");
        if (!chk.ok) ++failures;
    }
#endif

    return failures == 0 ? 0 : 1;
}

/// \file
/// Lightweight statistics registry.
///
/// Models the host-readable status counters of Section 4.3 ("number of
/// transferred bytes, frames, drops, or stalled cycles") and doubles as the
/// bench harness's measurement substrate. Counters are plain uint64 cells
/// addressed by hierarchical dotted names; Samplers accumulate value
/// distributions (min/max/mean/percentiles) for latency measurements.

#ifndef ROSEBUD_SIM_STATS_H
#define ROSEBUD_SIM_STATS_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rosebud::sim {

/// A monotonically increasing event/byte counter.
///
/// The cell is a relaxed atomic so components ticked on different threads
/// of the decoupled executor may bump a shared counter (e.g. two
/// RPUs incrementing the same accelerator counter): the final sum is
/// schedule-independent because addition commutes. On the serial path a
/// relaxed fetch_add costs the same as the plain add on x86/ARM hot loops.
class Counter {
 public:
    Counter() = default;
    Counter(const Counter& o) : value_(o.get()) {}
    Counter& operator=(const Counter& o) {
        value_.store(o.get(), std::memory_order_relaxed);
        return *this;
    }

    void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t get() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
    std::atomic<uint64_t> value_{0};
};

/// Accumulates a distribution of samples (e.g. per-packet latency in ns).
///
/// Unbounded by default (every sample is retained). For million-packet
/// runs call set_reservoir(cap): retention switches to Vitter's algorithm R
/// with a deterministic PRNG, so memory is bounded at `cap` samples while
/// min/max/mean stay exact (they are tracked over *all* samples) and
/// percentiles become reservoir estimates. Note the retained subset depends
/// on sample arrival order, so reservoir mode is not suitable for runs that
/// must produce tick-order-independent state fingerprints; the default
/// (retain everything) remains order-independent.
class Sampler {
 public:
    void add(double v);

    /// Retained sample count (== seen() unless a reservoir cap is active).
    size_t count() const { return samples_.size(); }
    /// Total samples ever added (survives reservoir eviction, not reset()).
    uint64_t seen() const { return seen_; }
    bool empty() const { return samples_.empty(); }

    double min() const;
    double max() const;
    double mean() const;

    /// p is clamped to [0,1] (NaN maps to 0); e.g. 0.5 for median.
    double percentile(double p) const;

    /// Bound retention to `cap` samples via reservoir sampling (0 restores
    /// unbounded retention). Samples already held beyond `cap` are truncated.
    void set_reservoir(size_t cap);
    size_t reservoir() const { return reservoir_cap_; }

    void reset();

    const std::vector<double>& samples() const { return samples_; }

 private:
    std::vector<double> samples_;
    size_t reservoir_cap_ = 0;  ///< 0 = retain everything
    uint64_t seen_ = 0;
    uint64_t rng_state_ = 0x243f6a8885a308d3ull;  ///< deterministic reservoir PRNG
    double exact_min_ = 0, exact_max_ = 0, sum_ = 0;  ///< over all seen samples
};

/// Named registry of counters and samplers. One per simulated system.
///
/// `counter()`/`sampler()` return node-stable references: components cache
/// the returned handle at elaboration time and bump it directly on the hot
/// path (no per-event string building or map walk). The find-or-create
/// lookup itself is mutex-guarded so a cold-path lookup from a decoupled
/// shard thread (e.g. an accelerator lazily resolving its counters) is
/// safe; established handles need no lock.
class Stats {
 public:
    /// Find-or-create a counter by dotted name.
    Counter& counter(const std::string& name) {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_[name];
    }

    /// Find-or-create a sampler by dotted name.
    Sampler& sampler(const std::string& name) {
        std::lock_guard<std::mutex> lock(mu_);
        return samplers_[name];
    }

    /// Committed counter value, 0 if the counter does not exist.
    uint64_t get(const std::string& name) const;

    /// Reset every counter and sampler (e.g. after warm-up).
    void reset_all();

    /// Dump all counters to a human-readable multi-line string.
    std::string to_string() const;

    /// Dump counters and sampler summaries as CSV ("name,kind,value,...")
    /// for spreadsheet/plotting pipelines.
    std::string to_csv() const;

    const std::map<std::string, Counter>& counters() const { return counters_; }
    const std::map<std::string, Sampler>& samplers() const { return samplers_; }

 private:
    mutable std::mutex mu_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Sampler> samplers_;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_STATS_H

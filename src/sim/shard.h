/// \file
/// Time-decoupled execution primitives (DESIGN.md §16).
///
/// A certified lint::ShardPlan proves that every edge crossing a shard
/// boundary has at least one cycle of forwarding latency. The runtime side
/// of that proof lives here: a ShardSpec tells the kernel which components
/// advance together under a *local* cycle counter, and a CutChannel
/// replaces the direct call across each cut data edge with a
/// latency-tagged queue — a push at producer-local cycle P becomes visible
/// to the consumer exactly when its local clock reaches P + latency, which
/// is the same cycle the barrier-synchronous kernel would have made it
/// visible through the two-phase commit.
///
/// The reverse (credit) direction is mirrored rather than queued: the
/// consumer publishes its committed end-of-cycle occupancy into the
/// channel, and the producer's admission check reads that snapshot plus
/// its own not-yet-drained pushes. Because the consumer only ever *adds*
/// occupancy from this channel and otherwise drains it, the snapshot plus
/// in-flight bytes is a monotone upper bound on the occupancy the
/// barrier kernel would see — so a producer may run arbitrarily far ahead
/// of the consumer while that worst-case bound still admits its frames,
/// and only has to fall back to cycle-accurate lockstep (consumer caught
/// up, snapshot exact) when the bound gets close to the FIFO capacity.
/// This is what lets a lightly loaded source shard free-run and batch
/// time instead of paying a rendezvous every cycle.

#ifndef ROSEBUD_SIM_SHARD_H
#define ROSEBUD_SIM_SHARD_H

#include <atomic>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.h"

namespace rosebud::sim {

/// Observed-latency accounting for one cut channel, for the dynamic
/// lookahead cross-check (obs::run_shard_check): every delivery must show
/// observed latency >= the certified cut lookahead.
struct CutChannelStats {
    std::string net;
    Cycle certified = 0;     ///< certified minimum latency of the cut edge
    uint64_t pushes = 0;     ///< entries that entered the channel
    uint64_t delivered = 0;  ///< entries released to the consumer
    Cycle min_latency = 0;   ///< smallest observed release latency (0 = none yet)
    Cycle max_latency = 0;
};

/// Untyped view of a cut channel, used by the shard runner to compute
/// safe time-skip horizons without knowing the payload type.
class CutChannelBase {
 public:
    virtual ~CutChannelBase() = default;

    /// Earliest pending (undrained) push tag; false if the queue is empty.
    virtual bool earliest_pending(Cycle* tag) const = 0;

    /// Bind the producer / consumer shard progress counters (the kernel's
    /// per-shard `done` cursors). `producer_done()` lets the consumer
    /// reason "no push with tag < done can still arrive"; the producer
    /// symmetrically uses `consumer_done()` to detect lockstep (exact
    /// credit) vs free-run (conservative bound).
    void bind_producer_done(const std::atomic<Cycle>* d) { producer_done_ = d; }
    void bind_consumer_done(const std::atomic<Cycle>* d) { consumer_done_ = d; }
    Cycle producer_done() const {
        return producer_done_ ? producer_done_->load(std::memory_order_acquire) : 0;
    }
    Cycle consumer_done() const {
        return consumer_done_ ? consumer_done_->load(std::memory_order_acquire) : 0;
    }

 protected:
    const std::atomic<Cycle>* producer_done_ = nullptr;
    const std::atomic<Cycle>* consumer_done_ = nullptr;
};

/// Consistent producer-side view of the consumer's published state.
struct CutCredit {
    uint64_t bytes = 0;          ///< committed occupancy behind the cut
    uint64_t count = 0;
    uint64_t drained_bytes = 0;  ///< cumulative bytes the consumer drained
};

/// One latency-tagged cut data edge plus its mirrored credit return.
/// Single producer, single consumer; when the shards run in lockstep the
/// rendezvous on the shard `done` counters orders the two threads, and in
/// free-run the producer only relies on the conservative bound, so the
/// mutex only guards the queue memory and snapshot consistency.
template <typename T>
class CutChannel : public CutChannelBase {
 public:
    CutChannel(std::string net, Cycle latency)
        : latency_(latency) {
        stats_.net = std::move(net);
        stats_.certified = latency;
    }

    /// Producer side: stage `v` at producer-local cycle `cycle`. The entry
    /// is released to the consumer at consumer-local cycle `cycle + latency`.
    void push(Cycle cycle, T v) {
        std::lock_guard<std::mutex> lock(mu_);
        if (q_.empty()) front_tag_.store(cycle, std::memory_order_release);
        q_.push_back({cycle, std::move(v)});
        ++stats_.pushes;
    }

    /// Consumer side: integrate every entry pushed at or before `upto`
    /// (i.e. everything that must be visible to the consumer's tick at
    /// `upto + 1`). `apply` receives (push_cycle, value). Entries arrive
    /// in push order — identical to the barrier kernel's commit order for
    /// a single-writer net.
    template <typename F>
    void drain_upto(Cycle upto, F&& apply) {
        std::lock_guard<std::mutex> lock(mu_);
        while (!q_.empty() && q_.front().cycle <= upto) {
            Entry e = std::move(q_.front());
            q_.pop_front();
            Cycle lat = upto + 1 - e.cycle;
            if (stats_.min_latency == 0 || lat < stats_.min_latency)
                stats_.min_latency = lat;
            if (lat > stats_.max_latency) stats_.max_latency = lat;
            ++stats_.delivered;
            drained_bytes_ += payload_bytes(e.value);
            apply(e.cycle, std::move(e.value));
        }
        front_tag_.store(q_.empty() ? kNoTag : q_.front().cycle,
                         std::memory_order_release);
    }

    /// Consumer side: publish the committed end-of-cycle occupancy the
    /// producer's admission check may observe next cycle.
    void publish_credit(uint64_t bytes, uint64_t count) {
        std::lock_guard<std::mutex> lock(mu_);
        credit_bytes_ = bytes;
        credit_count_ = count;
    }

    /// Producer side: consistent snapshot of the consumer's published
    /// occupancy and cumulative drained bytes (one lock — the pair is
    /// what the free-run worst-case bound needs to be monotone).
    CutCredit credit_snapshot() const {
        std::lock_guard<std::mutex> lock(mu_);
        return {credit_bytes_, credit_count_, drained_bytes_};
    }

    /// Producer side, legacy view: the consumer's committed occupancy.
    std::pair<uint64_t, uint64_t> credit() const {
        std::lock_guard<std::mutex> lock(mu_);
        return {credit_bytes_, credit_count_};
    }

    /// Lock-free: the cached front tag may lag a concurrent push, but the
    /// skip-horizon reader loads the producer's `done` counter first, and a
    /// push of tag s happens-before the producer's done = s+1 store — so
    /// any push this read misses carries a tag >= that done value, which
    /// already bounds the horizon.
    bool earliest_pending(Cycle* tag) const override {
        const Cycle v = front_tag_.load(std::memory_order_acquire);
        if (v == kNoTag) return false;
        *tag = v;
        return true;
    }

    Cycle latency() const { return latency_; }
    bool empty() const {
        std::lock_guard<std::mutex> lock(mu_);
        return q_.empty();
    }
    CutChannelStats stats() const {
        std::lock_guard<std::mutex> lock(mu_);
        return stats_;
    }

 private:
    struct Entry {
        Cycle cycle;
        T value;
    };

    /// Bytes a payload contributes to the consumer-side FIFO bound.
    /// Specialized for packet pointers below; other payloads count zero
    /// (their channels do not participate in byte-credit admission).
    static uint64_t payload_bytes(const T& v) {
        if constexpr (requires { v->size(); }) {
            return v ? v->size() : 0;
        } else {
            return 0;
        }
    }

    static constexpr Cycle kNoTag = ~Cycle(0);

    const Cycle latency_;
    mutable std::mutex mu_;
    std::atomic<Cycle> front_tag_{kNoTag};
    std::deque<Entry> q_;
    uint64_t credit_bytes_ = 0;
    uint64_t credit_count_ = 0;
    uint64_t drained_bytes_ = 0;
    CutChannelStats stats_;
};

/// Executable form of a certified ShardPlan: which kernel components run
/// on which worker, and the synchronization each shard owes its peers.
/// Built by System from lint::certify_partition output — never by hand in
/// production code (the latencies are *proof obligations*; see
/// obs::ShardLatencyRecorder for the dynamic cross-check).
struct ShardSpec {
    /// A conservative-synchronization dependency: before executing local
    /// cycle T, wait until shard `shard` has completed cycle T - lookahead
    /// (its `done` counter reaches T + 1 - lookahead).
    struct Wait {
        unsigned shard = 0;
        Cycle lookahead = 1;
    };

    /// How shard execution maps onto host threads. On a multi-core host
    /// each shard gets its own thread (kThreads); on a single hardware
    /// thread the same shard programs are interleaved cooperatively on
    /// the calling thread — identical results, no rendezvous spinning —
    /// which is also where the time-skip batching pays off. kAuto picks
    /// by std::thread::hardware_concurrency().
    enum class Exec { kAuto, kThreads, kCoop };

    struct Shard {
        /// Components this shard ticks and commits, in tick order.
        std::vector<Component*> components;
        /// Lookahead waits evaluated before each local tick.
        std::vector<Wait> start_waits;
        /// Producer shards whose same-cycle pushes this shard's end hook
        /// integrates: wait for their `done` to pass the current cycle.
        std::vector<unsigned> end_waits;
        /// Inbound cut channels (this shard is the consumer). The runner
        /// uses their pending tags + producer progress to bound how far
        /// local time may skip while every component is quiescent.
        std::vector<CutChannelBase*> in_channels;
        /// Runs once, serially, before the shard threads start (seed
        /// credit snapshots from committed state).
        std::function<void()> begin_hook;
        /// Runs at the end of every *executed* local cycle T, after this
        /// shard's commits and after the end_waits: drain inbound cut
        /// channels up to T and publish credit snapshots. Skipped
        /// (quiescent) cycles never run it — the contract is that it is
        /// the identity when the shard is asleep and its channels quiet.
        std::function<void(Cycle)> end_hook;
        /// >1 partitions this shard's tick phase over that many threads
        /// (ticks only read committed state, so intra-shard tick order is
        /// unobservable; commits stay serial per shard). Thread mode only.
        unsigned tick_workers = 0;
    };

    std::vector<Shard> shards;
    /// Shard whose worker commits the always-clocked elements (e.g. the
    /// load balancer's CommitAdapter). Must be the shard on which every
    /// stager of those elements runs.
    unsigned primary = 0;
    Exec exec = Exec::kAuto;
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_SHARD_H

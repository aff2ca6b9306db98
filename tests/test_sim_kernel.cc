/// Unit tests for the simulation kernel primitives: two-phase clocking,
/// registered FIFOs, registers, stats, and the deterministic RNG.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "sim/fifo.h"
#include "sim/kernel.h"
#include "sim/random.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud::sim {
namespace {

class CountingComponent : public Component {
 public:
    CountingComponent(Kernel& k, std::string name) : Component(k, std::move(name)) {}
    void tick() override { ++ticks; }
    int ticks = 0;
};

TEST(Kernel, TicksEveryComponentOncePerCycle) {
    Kernel k;
    CountingComponent a(k, "a");
    CountingComponent b(k, "b");
    k.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, NowNsMatchesClock) {
    Kernel k;
    k.run(250);
    EXPECT_DOUBLE_EQ(k.now_ns(), 1000.0);  // 250 cycles at 4 ns
}

TEST(Kernel, RunUntilStopsOnPredicate) {
    Kernel k;
    CountingComponent a(k, "a");
    bool fired = k.run_until([&] { return a.ticks >= 5; }, 100);
    EXPECT_TRUE(fired);
    EXPECT_EQ(a.ticks, 5);
}

TEST(Kernel, RunUntilTimesOut) {
    Kernel k;
    bool fired = k.run_until([] { return false; }, 7);
    EXPECT_FALSE(fired);
    EXPECT_EQ(k.now(), 7u);
}

TEST(Fifo, PushNotVisibleUntilCommit) {
    Kernel k;
    Fifo<int> f(k, "f", 4);
    ASSERT_TRUE(f.push(1));
    EXPECT_TRUE(f.empty());  // same cycle: not yet visible
    k.step();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), 1);
}

TEST(Fifo, CapacityCountsStagedPushes) {
    Kernel k;
    Fifo<int> f(k, "f", 2);
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_FALSE(f.can_push());
    EXPECT_FALSE(f.push(3));
    k.step();
    EXPECT_EQ(f.size(), 2u);
    EXPECT_FALSE(f.can_push());
}

TEST(Fifo, PopFreesSpaceWithinSameCycle) {
    Kernel k;
    Fifo<int> f(k, "f", 1);
    ASSERT_TRUE(f.push(1));
    k.step();
    EXPECT_FALSE(f.can_push());
    EXPECT_EQ(f.pop(), 1);
    // Skid-buffer behaviour: the pop frees the slot for a same-cycle push.
    EXPECT_TRUE(f.can_push());
    EXPECT_TRUE(f.push(2));
    k.step();
    EXPECT_EQ(f.front(), 2);
}

TEST(Fifo, FifoOrderPreserved) {
    Kernel k;
    Fifo<int> f(k, "f", 8);
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(f.push(i));
    k.step();
    for (int i = 0; i < 5; ++i) EXPECT_EQ(f.pop(), i);
}

TEST(Fifo, ClearDropsEverything) {
    Kernel k;
    Fifo<int> f(k, "f", 8);
    ASSERT_TRUE(f.push(1));
    k.step();
    ASSERT_TRUE(f.push(2));
    f.clear();
    k.step();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.free_slots(), 8u);
}

TEST(Fifo, FreeSlotsAccounting) {
    Kernel k;
    Fifo<int> f(k, "f", 3);
    EXPECT_EQ(f.free_slots(), 3u);
    ASSERT_TRUE(f.push(1));
    EXPECT_EQ(f.free_slots(), 2u);
    k.step();
    EXPECT_EQ(f.free_slots(), 2u);
}

TEST(Reg, WriteVisibleNextCycle) {
    Kernel k;
    Reg<int> r(k, 7);
    EXPECT_EQ(r.get(), 7);
    r.set(42);
    EXPECT_EQ(r.get(), 7);
    k.step();
    EXPECT_EQ(r.get(), 42);
}

TEST(Reg, LastWriteWins) {
    Kernel k;
    Reg<int> r(k);
    r.set(1);
    r.set(2);
    k.step();
    EXPECT_EQ(r.get(), 2);
}

TEST(Stats, CountersFindOrCreate) {
    Stats s;
    s.counter("a.b").add(3);
    s.counter("a.b").add(2);
    EXPECT_EQ(s.get("a.b"), 5u);
    EXPECT_EQ(s.get("missing"), 0u);
}

TEST(Stats, ResetAll) {
    Stats s;
    s.counter("x").add(9);
    s.sampler("y").add(1.0);
    s.reset_all();
    EXPECT_EQ(s.get("x"), 0u);
    EXPECT_TRUE(s.sampler("y").empty());
}

TEST(Sampler, Statistics) {
    Sampler s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 5.0);
}

TEST(Sampler, EmptyIsZero) {
    Sampler s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 0.0);
}

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRange) {
    Rng r(9);
    for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval) {
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, ChanceExtremes) {
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

// --- quiescence skipping ------------------------------------------------------

/// A consumer that is idle whenever its input FIFO is empty. Declares a
/// read port on the net so the kernel's wake-edge map routes producer
/// pushes back to it while it sleeps.
class SleepyConsumer : public Component {
 public:
    SleepyConsumer(Kernel& k, Fifo<int>& f) : Component(k, "consumer"), f_(f) {
        k.declare_port({name(), f.name(), PortRecord::kRead, 32, 1});
    }
    void tick() override {
        ++ticks;
        if (!f_.empty()) sum += f_.pop();
    }
    bool quiescent() const override { return f_.empty(); }
    void on_wake(Cycle skipped) override { skipped_total += skipped; }
    using Component::flush_skipped;

    Fifo<int>& f_;
    uint64_t ticks = 0;
    uint64_t skipped_total = 0;
    int sum = 0;
};

TEST(Quiescence, SleeperSkipsTicksButMissesNothing) {
    Kernel k;
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);

    k.run(1000);
    // The consumer slept through almost the whole window.
    EXPECT_LT(c.ticks, 1000u);

    // Host-phase push while asleep: the wake edge must reactivate it.
    ASSERT_TRUE(f.push(42));
    k.run(10);
    EXPECT_EQ(c.sum, 42);
    EXPECT_EQ(k.now(), 1010u);
}

TEST(Quiescence, IdleSkipOffTicksEveryCycle) {
    Kernel k;
    k.set_idle_skip(false);
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);
    k.run(500);
    EXPECT_EQ(c.ticks, 500u);
    EXPECT_EQ(c.skipped_total, 0u);
}

TEST(Quiescence, TickPlusSkippedAccountingIsExact) {
    Kernel k;
    Fifo<int> f(k, "q", 4);
    SleepyConsumer c(k, f);
    // Several sleep/wake rounds. A host-phase push commits at the end of
    // the next stepped cycle, so the value is poppable two cycles later.
    for (int round = 0; round < 5; ++round) {
        k.run(200);
        ASSERT_TRUE(f.push(round));
        k.run(5);
    }
    ASSERT_TRUE(f.push(99));
    k.run(5);
    // Host-boundary sync: settle any window opened by a sleep in the last
    // few cycles, then every cycle must be a tick or an accounted skip.
    c.flush_skipped();
    EXPECT_EQ(c.ticks + c.skipped_total, k.now());
    EXPECT_EQ(c.sum, 0 + 1 + 2 + 3 + 4 + 99);
}

// --- registered-credit wake edges ---------------------------------------------
//
// A kCreditRegistered FIFO returns credit with one cycle of latency, so a
// pop is an observable event for the *writer*: the wake map must include
// the writer as a wake target, or a producer sleeping on a full FIFO
// never learns that space opened.

TEST(Quiescence, WakeMapIncludesRegisteredCreditWriters) {
    Kernel k;
    Fifo<int> reg(k, "reg_q", 2, 32, 0, CreditPolicy::kRegistered);
    Fifo<int> skid(k, "skid_q", 2, 32, 0, CreditPolicy::kSkidBuffer);
    CountingComponent w(k, "w");
    CountingComponent r(k, "r");
    k.declare_port({"w", "reg_q", PortRecord::kWrite, 32, 0});
    k.declare_port({"r", "reg_q", PortRecord::kRead, 32, 0});
    k.declare_port({"w", "skid_q", PortRecord::kWrite, 32, 0});
    k.declare_port({"r", "skid_q", PortRecord::kRead, 32, 0});
    k.step();  // idle skip is on by default: builds the wake map lazily
    ASSERT_TRUE(k.wake_map_built());

    auto contains = [&](const char* net, const char* name) {
        const std::vector<Component*>* l = k.wake_list(k.net_id(net));
        if (!l) return false;
        for (Component* c : *l) {
            if (c->name() == name) return true;
        }
        return false;
    };
    // Registered credit: reader AND writer are wake targets.
    EXPECT_TRUE(contains("reg_q", "r"));
    EXPECT_TRUE(contains("reg_q", "w"));
    // Skid credit: only the reader (cross-component credit observation is
    // illegal there anyway, so there is no sleeping producer to wake).
    EXPECT_TRUE(contains("skid_q", "r"));
    EXPECT_FALSE(contains("skid_q", "w"));
}

/// Producer that fills a registered-credit FIFO and sleeps while it is
/// full; only the consumer's pops can wake it again.
class BlockedProducer : public Component {
 public:
    BlockedProducer(Kernel& k, Fifo<int>& f) : Component(k, "producer"), f_(f) {
        k.declare_port({name(), f.name(), PortRecord::kWrite, 32, 1});
    }
    void tick() override {
        ++ticks;
        if (f_.can_push()) (void)!f_.push(seq++);
    }
    bool quiescent() const override { return f_.free_slots() == 0; }

    Fifo<int>& f_;
    uint64_t ticks = 0;
    int seq = 0;
};

/// Consumer that drains one element every seventh cycle and never sleeps.
class SlowDrain : public Component {
 public:
    SlowDrain(Kernel& k, Fifo<int>& f) : Component(k, "drain"), f_(f) {
        k.declare_port({name(), f.name(), PortRecord::kRead, 32, 1});
    }
    void tick() override {
        if (kernel().now() % 7 == 0 && !f_.empty()) {
            sum += f_.pop();
            ++count;
        }
    }

    Fifo<int>& f_;
    long sum = 0;
    int count = 0;
};

TEST(Quiescence, RegisteredCreditPopWakesBlockedProducer) {
    auto run = [](bool idle_skip) {
        Kernel k;
        k.set_idle_skip(idle_skip);
        Fifo<int> f(k, "q", 4, 32, 0, CreditPolicy::kRegistered);
        BlockedProducer p(k, f);
        SlowDrain d(k, f);
        k.run(700);
        return std::tuple<int, long, int, uint64_t>(p.seq, d.sum, d.count, p.ticks);
    };
    auto [seq_skip, sum_skip, count_skip, ticks_skip] = run(true);
    auto [seq_ref, sum_ref, count_ref, ticks_ref] = run(false);

    // The producer really slept under idle skip...
    EXPECT_LT(ticks_skip, ticks_ref);
    // ...yet produced and the drain consumed exactly the same stream: the
    // pop's credit wake edge re-armed the producer every time.
    EXPECT_EQ(seq_skip, seq_ref);
    EXPECT_EQ(sum_skip, sum_ref);
    EXPECT_EQ(count_skip, count_ref);
    EXPECT_GT(count_skip, 50);
}

// --- execution-schedule equivalence -------------------------------------------
//
// The legality argument for every host-speed mode (DESIGN.md §11) is that
// it cannot change simulated results. Enforce it end-to-end: a real
// 4-RPU forwarding system run under each kernel mode must produce the
// same architectural-state fingerprint, bit for bit.

enum class Sched {
    kSerial,        ///< default: idle skip + timed sleep + race check
    kNoIdleSkip,    ///< every component ticked every cycle
    kCommitCompat,  ///< benchmarking reference regime
    kShuffled,      ///< permuted tick order
};

uint64_t
run_sched_fingerprint(Sched s) {
    rosebud::SystemConfig cfg;
    cfg.rpu_count = 4;
    rosebud::System sys(cfg);
    switch (s) {
        case Sched::kSerial:
            break;
        case Sched::kNoIdleSkip:
            sys.kernel().set_idle_skip(false);
            break;
        case Sched::kCommitCompat:
            sys.kernel().set_commit_compat(true);
            break;
        case Sched::kShuffled:
            sys.kernel().shuffle_tick_order(0x5eedf00d);
            break;
    }

    auto fw = rosebud::fwlib::forwarder();
    sys.host().load_firmware_all(fw.image, fw.entry);
    sys.host().boot_all();

    rosebud::net::TrafficSpec tspec;
    tspec.seed = 5;
    auto gen = std::make_shared<rosebud::net::TraceGenerator>(tspec, nullptr,
                                                              nullptr);
    rosebud::dist::TrafficSource::Config src;
    src.port = 0;
    src.load = 0.6;
    src.max_packets = 200;
    sys.add_source(src, [gen] { return gen->next(); });

    sys.run_cycles(25000);
    return sys.state_fingerprint();
}

TEST(ScheduleEquivalence, SerialAndShuffledAreBitIdentical) {
    const uint64_t base = run_sched_fingerprint(Sched::kSerial);
    EXPECT_EQ(run_sched_fingerprint(Sched::kShuffled), base);
}

TEST(ScheduleEquivalence, IdleSkipAndCommitCompatAreBitIdentical) {
    const uint64_t base = run_sched_fingerprint(Sched::kSerial);
    EXPECT_EQ(run_sched_fingerprint(Sched::kNoIdleSkip), base);
    EXPECT_EQ(run_sched_fingerprint(Sched::kCommitCompat), base);
}

// --- timed sleep ----------------------------------------------------------------
//
// A self-advancing component sleeps on a timer through the ticks its
// idle_horizon() promised and replays them in on_wake(); the kernel jumps
// over spans where everything sleeps. None of it may change a result.

/// Records the cycle of every P-th tick; the ticks in between only count
/// (and promise nothing while `busy`).
class Metronome : public Component {
 public:
    Metronome(Kernel& k, Cycle period) : Component(k, "metronome"), period_(period) {
        self_advancing_ = true;
    }
    void tick() override {
        ++ticks;
        if (++elapsed_ % period_ == 0) beats.push_back(now());
    }
    Cycle idle_horizon() const override {
        return busy ? 0 : period_ - 1 - elapsed_ % period_;
    }
    void on_wake(Cycle n) override { elapsed_ += n; }

    bool busy = false;
    uint64_t ticks = 0;
    std::vector<Cycle> beats;

 private:
    Cycle period_;
    Cycle elapsed_ = 0;
};

TEST(TimedSleep, SelfAdvancingComponentReplaysExactly) {
    auto run = [](bool timed) {
        Kernel k;
        k.set_timed_sleep(timed);
        Metronome m(k, 1000);
        k.run(10'007);
        return std::make_tuple(m.beats, m.ticks, k.fast_forwarded_cycles());
    };
    auto [beats_on, ticks_on, ff_on] = run(true);
    auto [beats_off, ticks_off, ff_off] = run(false);
    ASSERT_EQ(beats_on.size(), 10u);
    EXPECT_EQ(beats_on, beats_off);
    EXPECT_EQ(ticks_off, 10'007u);
    // Asleep between beats: a few live ticks per period, the rest jumped.
    EXPECT_LT(ticks_on, 200u);
    EXPECT_GT(ff_on, 9'000u);
    EXPECT_EQ(ff_off, 0u);
}

TEST(TimedSleep, EarlyWakeCancelsTheTimer) {
    Kernel k;
    Metronome m(k, 1000);
    k.run(10);
    ASSERT_FALSE(m.awake());
    const Cycle deadline = k.next_timer();
    ASSERT_LT(deadline, 1000u);

    // A host-side wake before the deadline; the component then stays busy.
    m.busy = true;
    m.wake();
    k.run(deadline + 50 - k.now());
    // The cancelled deadline passed without a second wake of an awake
    // component (which would double-count it in the active set).
    EXPECT_TRUE(m.awake());
    EXPECT_EQ(k.awake_count(), 1u);
    EXPECT_EQ(k.next_timer(), kForever);

    // Sleeping again arms a fresh timer; wake_all cancels every timer.
    m.busy = false;
    k.run(10);
    ASSERT_FALSE(m.awake());
    ASSERT_NE(k.next_timer(), kForever);
    k.set_idle_skip(false);
    EXPECT_TRUE(m.awake());
    EXPECT_EQ(k.awake_count(), 1u);
    EXPECT_EQ(k.next_timer(), kForever);
    k.run(1000);
    // Every cycle was a live tick or a replayed one.
    EXPECT_EQ(m.beats, (std::vector<Cycle>{999, 1999}));
}

enum class Timed {
    kOn,          ///< default: idle skip + timed sleep
    kOff,         ///< idle skip, sources tick every cycle
    kNoIdleSkip,  ///< every component ticked every cycle
};

struct LowLoadResult {
    uint64_t fingerprint = 0;
    uint64_t offered = 0;
    uint64_t frames = 0;
    std::vector<double> latency;  ///< per delivered frame, both sinks
    std::vector<double> tokens;   ///< per source: the bucket, bit for bit
    Cycle fast_forwarded = 0;

    bool operator==(const LowLoadResult& o) const {
        return fingerprint == o.fingerprint && offered == o.offered &&
               frames == o.frames && latency == o.latency && tokens == o.tokens;
    }
};

/// The low-load regime timed sleep targets: 16-RPU forwarder, 256 B
/// frames on both ports at 0.6% of line rate (0.3 B/cycle, which binary
/// floating point cannot represent: a replay summarized as n * rate
/// would round differently from the live adds).
std::unique_ptr<rosebud::System>
make_low_load(Timed t, uint64_t shuffle_seed) {
    rosebud::SystemConfig cfg;
    cfg.rpu_count = 16;
    auto sys = std::make_unique<rosebud::System>(cfg);
    if (shuffle_seed) sys->kernel().shuffle_tick_order(shuffle_seed);
    if (t == Timed::kOff) sys->kernel().set_timed_sleep(false);
    if (t == Timed::kNoIdleSkip) sys->kernel().set_idle_skip(false);
    auto fw = rosebud::fwlib::forwarder();
    sys->host().load_firmware_all(fw.image, fw.entry);
    sys->host().boot_all();
    for (unsigned port = 0; port < 2; ++port) {
        rosebud::net::TrafficSpec tspec;
        tspec.packet_size = 256;
        tspec.seed = 17 + port;
        auto gen =
            std::make_shared<rosebud::net::TraceGenerator>(tspec, nullptr, nullptr);
        sys->add_source({.port = port, .line_gbps = 100.0, .load = 0.006},
                        [gen] { return gen->next(); });
    }
    return sys;
}

/// Run `total` cycles as run() calls of `chunk` cycles (0 = one call).
LowLoadResult
run_low_load(Timed t, uint64_t shuffle_seed = 0, Cycle total = 60'000,
             Cycle chunk = 0) {
    auto sys = make_low_load(t, shuffle_seed);
    if (chunk == 0) chunk = total;
    for (Cycle done = 0; done < total; done += chunk)
        sys->run_cycles(std::min(chunk, total - done));
    LowLoadResult r;
    r.fingerprint = sys->state_fingerprint();
    for (Component* c : sys->kernel().components()) {
        if (auto* src = dynamic_cast<rosebud::dist::TrafficSource*>(c)) {
            r.offered += src->offered();
            r.tokens.push_back(src->tokens());
        }
    }
    for (unsigned port = 0; port < 2; ++port) {
        r.frames += sys->sink(port).frames();
        for (double v : sys->sink(port).latency().samples()) r.latency.push_back(v);
    }
    r.fast_forwarded = sys->kernel().fast_forwarded_cycles();
    return r;
}

TEST(TimedSleep, OnOffAndNoIdleSkipAreBitIdenticalAcrossTickOrders) {
    const LowLoadResult base = run_low_load(Timed::kOn);
    ASSERT_GT(base.frames, 50u);
    // The whole system sleeps between frames: most cycles are jumped.
    EXPECT_GT(base.fast_forwarded, 30'000u);
    const LowLoadResult off = run_low_load(Timed::kOff);
    EXPECT_TRUE(off == base);
    EXPECT_EQ(off.fast_forwarded, 0u);  // sources tick every cycle
    EXPECT_TRUE(run_low_load(Timed::kNoIdleSkip) == base);
    for (uint64_t seed : {0x5eedf00dull, 0xc0ffeeull}) {
        SCOPED_TRACE(seed);
        EXPECT_TRUE(run_low_load(Timed::kOn, seed) == base);
        EXPECT_TRUE(run_low_load(Timed::kOff, seed) == base);
    }
}

TEST(TimedSleep, ChoppedRunsSplitSleepWindowsExactly) {
    // Every run() boundary syncs sleepers (on_wake mid-window), so short
    // and odd-length runs cut the timers' windows at arbitrary points.
    const LowLoadResult base = run_low_load(Timed::kOn, 0, 20'000);
    ASSERT_GT(base.frames, 10u);
    for (Cycle chunk : {Cycle(1), Cycle(7), Cycle(1009)}) {
        SCOPED_TRACE(chunk);
        const LowLoadResult r = run_low_load(Timed::kOn, 0, 20'000, chunk);
        EXPECT_TRUE(r == base);
    }
    EXPECT_GT(run_low_load(Timed::kOn, 0, 20'000, 1009).fast_forwarded, 5'000u);
}

TEST(TimedSleep, RunUntilFiresOnTheSteppedCycle) {
    // A time-dependent predicate that turns true inside a sleep window:
    // run_until must stop on exactly the cycle step-by-step stepping does.
    auto frames = [](rosebud::System& sys) {
        return sys.sink(0).frames() + sys.sink(1).frames();
    };
    auto make_pred = [&](rosebud::System& sys) {
        return [&sys, frames] {
            return frames(sys) >= 3 && sys.kernel().now() % 97 == 0;
        };
    };

    auto stepped = make_low_load(Timed::kOn, 0);
    auto pred_s = make_pred(*stepped);
    stepped->run_cycles(1);  // elaborate (the same on both sides)
    while (!pred_s()) stepped->kernel().step();
    const Cycle fired_at = stepped->kernel().now();

    auto jumped = make_low_load(Timed::kOn, 0);
    jumped->run_cycles(1);
    const Cycle ff0 = jumped->kernel().fast_forwarded_cycles();
    ASSERT_TRUE(jumped->kernel().run_until(make_pred(*jumped), 100'000));
    EXPECT_EQ(jumped->kernel().now(), fired_at);
    EXPECT_GT(jumped->kernel().fast_forwarded_cycles(), ff0);

    // Both continue identically from there.
    stepped->run_cycles(10'000);
    jumped->run_cycles(10'000);
    EXPECT_EQ(jumped->state_fingerprint(), stepped->state_fingerprint());
    EXPECT_EQ(frames(*jumped), frames(*stepped));
}

TEST(TimedSleep, LoadZeroAndCappedSourcesSleepForever) {
    // A load-0 source promises kForever and a capped source that is done
    // is quiescent: neither may arm a timer (now + kForever would wrap to
    // a deadline in the past and wake them every sweep).
    auto run = [](bool timed) {
        rosebud::SystemConfig cfg;
        cfg.rpu_count = 4;
        rosebud::System sys(cfg);
        sys.kernel().set_timed_sleep(timed);
        auto fw = rosebud::fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        rosebud::net::TrafficSpec tspec;
        tspec.seed = 9;
        auto gen =
            std::make_shared<rosebud::net::TraceGenerator>(tspec, nullptr, nullptr);
        auto& idle = sys.add_source({.port = 0, .load = 0.0},
                                    [gen] { return gen->next(); });
        auto& capped = sys.add_source({.port = 1, .load = 0.5, .max_packets = 3},
                                      [gen] { return gen->next(); });
        sys.run_cycles(200'000);
        EXPECT_EQ(idle.offered(), 0u);
        EXPECT_EQ(capped.offered(), 3u);
        EXPECT_FALSE(capped.awake());
        if (timed) {
            EXPECT_FALSE(idle.awake());
            EXPECT_EQ(sys.kernel().awake_count(), 0u);
            EXPECT_EQ(sys.kernel().next_timer(), kForever);
        }
        return std::make_pair(sys.state_fingerprint(),
                              sys.kernel().fast_forwarded_cycles());
    };
    auto [fp_on, ff_on] = run(true);
    auto [fp_off, ff_off] = run(false);
    EXPECT_EQ(fp_on, fp_off);
    EXPECT_GT(ff_on, 190'000u);
    EXPECT_EQ(ff_off, 0u);  // an uncapped load-0 source is never quiescent
}

TEST(Resources, Arithmetic) {
    ResourceFootprint a{100, 200, 3, 4, 5};
    ResourceFootprint b{10, 20, 1, 1, 1};
    ResourceFootprint sum = a + b;
    EXPECT_EQ(sum.luts, 110u);
    EXPECT_EQ(sum.regs, 220u);
    ResourceFootprint scaled = b * 3;
    EXPECT_EQ(scaled.luts, 30u);
    ResourceFootprint diff = a.saturating_sub(b);
    EXPECT_EQ(diff.luts, 90u);
    ResourceFootprint clamped = b.saturating_sub(a);
    EXPECT_EQ(clamped.luts, 0u);
}

TEST(Resources, FormatRowContainsPercentages) {
    std::string row = format_footprint_row("Test", {118224, 0, 0, 0, 0}, kXcvu9p);
    EXPECT_NE(row.find("Test"), std::string::npos);
    EXPECT_NE(row.find("10.0%"), std::string::npos);
}

}  // namespace
}  // namespace rosebud::sim

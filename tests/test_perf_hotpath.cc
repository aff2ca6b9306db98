/// Hot-path allocation audit (the perf contract behind the fast kernel).
///
/// The tick/commit path must not touch the heap: per-cycle work runs tens
/// of millions of times per benchmark, so a single stray allocation (a
/// string-keyed stats lookup, a per-cycle temporary vector) dominates host
/// time. This binary overrides global operator new with a counter (every
/// form the program uses, including the nothrow ones std::stable_sort's
/// temporary buffer takes, so the audit sees every allocation and news and
/// deletes stay matched under ASan) and asserts:
///  * an idle steady-state system (idle skipping disabled, so every
///    component really ticks every cycle) performs ZERO allocations — also
///    with the stall-attribution telemetry attached;
///  * under traffic, allocations are bounded per *packet* (payload buffers,
///    shared_ptr control blocks), never per cycle — also at low load, where
///    the sources sleep on timers and the kernel jumps between frames.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "obs/health.h"
#include "obs/telemetry.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<bool> g_counting{false};

void
count_alloc() {
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void*
operator new(std::size_t n) {
    count_alloc();
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n) {
    count_alloc();
    if (void* p = std::malloc(n ? n : 1)) return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept {
    count_alloc();
    return std::malloc(n ? n : 1);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    count_alloc();
    return std::malloc(n ? n : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rosebud {
namespace {

std::unique_ptr<System>
make_forwarder_system(unsigned rpus) {
    SystemConfig cfg;
    cfg.rpu_count = rpus;
    auto sys = std::make_unique<System>(cfg);
    auto fw = fwlib::forwarder();
    sys->host().load_firmware_all(fw.image, fw.entry);
    sys->host().boot_all();
    return sys;
}

TEST(HotPath, IdleSteadyStateAllocatesNothing) {
    auto sys = make_forwarder_system(4);
    // Disable idle skipping so every component's tick()/commit() really
    // executes every cycle — the audit must cover the full per-cycle path,
    // not the fast-forwarded one.
    sys->kernel().set_idle_skip(false);
    sys->run_cycles(2000);  // warm-up: lazily sized buffers, stats handles

    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(5000);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "per-cycle tick/commit path touched the heap";
}

TEST(HotPath, TrafficAllocationsAreBoundedPerPacket) {
    auto sys = make_forwarder_system(4);

    net::TrafficSpec tspec;
    tspec.packet_size = 512;
    tspec.seed = 31;
    auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
    sys->add_source({.port = 0, .line_gbps = 100.0, .load = 0.5},
                    [gen] { return gen->next(); });
    sys->run_cycles(10'000);  // steady state

    // The forwarder firmware cross-forwards: traffic offered on port 0
    // egresses on port 1.
    uint64_t frames_before = sys->sink(0).frames() + sys->sink(1).frames();
    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(20'000);
    g_counting.store(false);
    uint64_t packets =
        sys->sink(0).frames() + sys->sink(1).frames() - frames_before;

    ASSERT_GT(packets, 100u);  // the workload actually flowed
    // Generous per-packet budget (payload buffer, control block, queue
    // churn). What this catches is per-cycle growth: 20k cycles at even
    // one allocation per cycle would blow this bound several times over.
    EXPECT_LT(g_allocs.load(), packets * 64)
        << "allocations grew with cycles, not packets ("
        << g_allocs.load() << " allocs for " << packets << " packets)";
}

// Timed sleep's cost contract: at low load the sources sleep on timers
// between frames and the kernel jumps over the idle spans; arming, firing
// and cancelling those timers must not touch the heap. The simulated
// per-packet path is identical with timed sleep off, so the two runs must
// allocate exactly the same — a per-window allocation would show up as a
// difference of hundreds.
TEST(HotPath, TimedSleepSteadyStateAllocatesPerPacketOnly) {
    struct Window {
        uint64_t allocs = 0;
        uint64_t packets = 0;
        sim::Cycle jumped = 0;
    };
    auto run = [](bool timed) {
        auto sys = make_forwarder_system(16);
        sys->kernel().set_timed_sleep(timed);
        for (unsigned port = 0; port < 2; ++port) {
            net::TrafficSpec tspec;
            tspec.packet_size = 256;
            tspec.seed = 41 + port;
            auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
            sys->add_source({.port = port, .line_gbps = 100.0, .load = 0.005},
                            [gen] { return gen->next(); });
        }
        sys->run_cycles(20'000);  // steady state: timers armed and fired

        const uint64_t frames0 = sys->sink(0).frames() + sys->sink(1).frames();
        const sim::Cycle ff0 = sys->kernel().fast_forwarded_cycles();
        g_allocs.store(0);
        g_counting.store(true);
        sys->run_cycles(200'000);
        g_counting.store(false);
        Window w;
        w.allocs = g_allocs.load();
        w.packets = sys->sink(0).frames() + sys->sink(1).frames() - frames0;
        w.jumped = sys->kernel().fast_forwarded_cycles() - ff0;
        return w;
    };
    const Window on = run(true);
    const Window off = run(false);

    ASSERT_GT(on.packets, 100u);
    EXPECT_EQ(on.packets, off.packets);
    // The regime under test: most of the window was jumped, in many
    // timer-bounded hops (one per frame gap at least).
    EXPECT_GT(on.jumped, 100'000u);
    EXPECT_EQ(off.jumped, 0u);
    EXPECT_EQ(on.allocs, off.allocs)
        << "timer bookkeeping allocated (" << on.allocs << " allocs with timed "
        << "sleep, " << off.allocs << " without)";
    EXPECT_LT(on.allocs, on.packets * 64)
        << "allocations grew with cycles, not packets (" << on.allocs
        << " allocs for " << on.packets << " packets)";
}

// The production health layer's cost contract: attaching it must not add
// heap traffic to the steady-state path. Its per-packet/per-cycle work
// lands in preallocated PODs (flight-recorder ring, HDR histogram buckets,
// open-addressed in-flight table); allocation is reserved for rare events
// (trips, notes, epoch verdicts).
TEST(HotPath, IdleSteadyStateWithHealthAttachedAllocatesNothing) {
    auto sys = make_forwarder_system(4);
    obs::HealthMonitor mon;
    mon.attach(*sys);
    sys->kernel().set_idle_skip(false);
    sys->run_cycles(2000);  // warm-up, same as the detached audit

    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(5000);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "health layer touched the heap on the idle per-cycle path";
    mon.detach();
}

TEST(HotPath, TrafficWithHealthAttachedStaysBoundedPerPacket) {
    auto sys = make_forwarder_system(4);
    obs::HealthMonitor mon;
    mon.attach(*sys);

    net::TrafficSpec tspec;
    tspec.packet_size = 512;
    tspec.seed = 31;
    auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
    sys->add_source({.port = 0, .line_gbps = 100.0, .load = 0.5},
                    [gen] { return gen->next(); });
    sys->run_cycles(10'000);  // steady state

    uint64_t frames_before = sys->sink(0).frames() + sys->sink(1).frames();
    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(20'000);
    g_counting.store(false);
    uint64_t packets =
        sys->sink(0).frames() + sys->sink(1).frames() - frames_before;

    ASSERT_GT(packets, 100u);
    EXPECT_GT(mon.ingress_packets(), 100u);  // the monitor really observed
    // Same per-packet budget as the detached audit: the health layer's
    // per-packet cost must be allocation-free, so the bound does not move.
    EXPECT_LT(g_allocs.load(), packets * 64)
        << "health layer allocations grew with cycles, not packets ("
        << g_allocs.load() << " allocs for " << packets << " packets)";
    mon.detach();
}

// Attached telemetry's cost contract: typed events and pulled occupancy
// touch only NetId-indexed state, so the per-cycle path builds no net-name
// strings and allocates nothing. (Waveform capture and epochs are off:
// both allocate by design, per value change and per epoch.)
TEST(HotPath, TelemetryAttachedSteadyStateAllocatesNothing) {
    auto sys = make_forwarder_system(4);
    obs::Telemetry::Config tc;
    tc.capture_vcd = false;
    tc.epoch_cycles = 0;
    obs::Telemetry telem(tc);
    telem.attach(*sys);
    sys->kernel().set_idle_skip(false);
    sys->run_cycles(2000);  // warm-up, same as the detached audit

    g_allocs.store(0);
    g_counting.store(true);
    sys->run_cycles(5000);
    g_counting.store(false);

    EXPECT_EQ(g_allocs.load(), 0u)
        << "attached telemetry touched the heap on the per-cycle path";
    EXPECT_EQ(telem.cycles_observed(), 7000u);
    telem.detach();
}

}  // namespace
}  // namespace rosebud

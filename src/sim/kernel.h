/// \file
/// Synchronous, two-phase simulation kernel.
///
/// Rosebud's hardware is a fully synchronous 250 MHz design; the kernel
/// mirrors RTL semantics: every cycle, each registered Component runs its
/// combinational/compute phase (`tick`) against the *previous* cycle's
/// visible state, then every Clocked element commits its staged updates
/// (`commit`). Inter-component communication happens exclusively through
/// registered primitives (sim::Fifo, sim::Reg), which makes results
/// independent of component iteration order.
///
/// That independence is machine-checked rather than assumed:
///  * the kernel tracks which component is ticking and whether the clock is
///    in the tick or commit phase, so the primitives can fault when two
///    components stage into the same element in one cycle (the dynamic
///    race detector, see sim/fifo.h);
///  * `shuffle_tick_order` permutes the component iteration order under a
///    seed, so a test can assert bit-identical runs across orders;
///  * every primitive and abstract inter-component link is recorded in a
///    netlist (nets + directed ports) that the static checker in
///    src/lint/ validates before cycle 0.
///
/// Execution regimes (DESIGN.md §11), all bit-identical by test:
///  * **Tuned** (the default) — only what can act is ticked. A component
///    reporting `quiescent()` sleeps until a netlist wake edge (or an
///    explicit `wake()`) delivers input; a self-advancing one (a paced
///    traffic source) sleeps on a *timer* through the ticks it promised
///    are pure time advance and replays them in on_wake(). While every
///    component sleeps, run() jumps to the next timer, health-probe
///    deadline or the run's end. Off while a TelemetrySink is attached.
///  * **Commit-compat reference** — `set_commit_compat(true)`: the
///    pre-fast-path per-cycle regime, for A/B benchmarking only.
///  * **Time-decoupled shards** — `set_shard_spec` (sim/shard.h, §16):
///    its low-load win is the idle-window batching timed sleep now gives
///    the serial kernel, so it awaits re-measurement against tuned.

#ifndef ROSEBUD_SIM_KERNEL_H
#define ROSEBUD_SIM_KERNEL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/telemetry.h"

namespace rosebud::sim {

/// Simulation time in clock cycles.
using Cycle = uint64_t;

/// Fabric clock of the reference implementation (paper Section 5).
inline constexpr double kClockHz = 250e6;

/// Nanoseconds per fabric clock cycle (4 ns at 250 MHz).
inline constexpr double kNsPerCycle = 1e9 / kClockHz;

/// Convert a cycle count to nanoseconds of simulated time.
inline constexpr double cycles_to_ns(Cycle c) { return double(c) * kNsPerCycle; }

/// Convert a cycle count to microseconds of simulated time.
inline constexpr double cycles_to_us(Cycle c) { return double(c) * kNsPerCycle / 1e3; }

/// Convert a cycle count to seconds of simulated time.
inline constexpr double cycles_to_s(Cycle c) { return double(c) / kClockHz; }

/// A time that never comes: an idle horizon with no end (the component
/// acts again only on input), or a timer that is not set.
inline constexpr Cycle kForever = ~Cycle(0);

/// Anything with per-cycle staged state that must become visible at the
/// clock edge. Fifos, registers, and components all implement this.
class Clocked {
 public:
    virtual ~Clocked() = default;

    /// Make updates staged during the current cycle visible to readers.
    virtual void commit() = 0;

 private:
    friend class Kernel;
    /// Set while this element sits in the kernel's lazy-commit queue
    /// (see Kernel::add_clocked / request_commit).
    std::atomic<bool> commit_queued_{false};
};

class Kernel;
struct ShardSpec;  // sim/shard.h: time-decoupled execution (DESIGN.md §16)

// --- elaboration netlist -----------------------------------------------------

/// Behaviour flags on a net (see lint::check_netlist for how each check
/// consumes them).
enum NetFlag : unsigned {
    /// Written by the outside world (e.g. the MAC RX wire): a missing
    /// writer port is not a violation.
    kNetExternalSource = 1u << 0,
    /// Drained by the outside world (the wire, the host): a missing reader
    /// port is not a violation.
    kNetExternalSink = 1u << 1,
    /// Fan-in with declared arbitration is allowed (> 1 writer component).
    kNetMultiWriter = 1u << 2,
    /// Fan-out is allowed (> 1 reader component, e.g. broadcast delivery).
    kNetMultiReader = 1u << 3,
};

/// One registered communication element: a Fifo/Reg primitive or an
/// abstract credit-based link (a callback boundary that behaves like a
/// 1-deep registered channel). Primitives self-declare at construction;
/// abstract links are declared by the component or wiring code that owns
/// them.
struct NetRecord {
    enum Kind : uint8_t { kFifo, kReg, kLink };

    /// Credit-return discipline the writer observes, declared so the
    /// shard-cut certifier (lint/shard.h) can prove reverse-edge latency:
    /// a registered credit return means a reader-side pop at cycle N is
    /// first visible to the writer's admission check at N+1 (one cycle of
    /// lookahead on the reader->writer feedback edge), while a skid-buffer
    /// credit is combinational (zero latency). kCreditNone states the
    /// writer never observes reader-side credit at all (self-paced drains
    /// such as the MAC TX line), so no feedback edge exists.
    enum CreditKind : uint8_t { kCreditNone, kCreditSkid, kCreditRegistered };

    std::string name;        ///< unique instance name, e.g. "rpu3.rx_fifo"
    Kind kind = kFifo;
    unsigned width_bits = 0; ///< datapath width (0 = unspecified)
    size_t depth = 0;        ///< entries (fifo capacity; 1 for reg/link)
    unsigned flags = 0;      ///< NetFlag bits
    /// Conservative default: an unspecified credit path is assumed
    /// combinational, which can only under-state lookahead, never claim it.
    CreditKind credit = kCreditSkid;
};

/// A directed endpoint: `component` writes to / reads from `net`.
/// `width_bits`/`depth` are the producer/consumer-side expectations; when
/// nonzero they must match the net (credit counters sized against a
/// different FIFO depth are exactly the class of RTL bug this catches).
struct PortRecord {
    enum Dir : uint8_t { kWrite, kRead };

    std::string component;
    std::string net;
    Dir dir = kWrite;
    unsigned width_bits = 0;  ///< 0 = unspecified (inherits the net's)
    size_t depth = 0;         ///< 0 = unspecified
};

/// A hardware block with per-cycle behaviour.
///
/// Components register themselves with a Kernel at construction and are
/// ticked once per simulated cycle. All outputs must go through registered
/// primitives so that `tick` order does not matter.
class Component : public Clocked {
 public:
    Component(Kernel& kernel, std::string name);
    ~Component() override = default;

    Component(const Component&) = delete;
    Component& operator=(const Component&) = delete;

    /// Compute phase: observe committed state, stage updates.
    virtual void tick() = 0;

    /// Commit phase. Most components keep all state in registered
    /// primitives and need no custom commit.
    void commit() override {}

    /// Conservative idle report, polled by the kernel after each commit
    /// when idle skipping is enabled. Return true only if — given no new
    /// input — this component's tick() and commit() can have no observable
    /// effect on any cycle until an input arrives. Inputs of a sleeping
    /// component must be sim::Fifo pushes (which wake it through the
    /// netlist wake edges) or direct calls instrumented with wake().
    /// The default keeps the component permanently active.
    virtual bool quiescent() const { return false; }

    /// Re-activate this component, cancelling any timer. Idempotent and
    /// thread safe. A wake issued during the tick phase takes effect on
    /// the *next* cycle — registered semantics: the sleeper could not have
    /// observed the producer's staged output this cycle anyway — which
    /// keeps every tick order bit-identical. Its commit() still runs this
    /// cycle, so staged input handed over by a direct call (e.g. begin_rx)
    /// is integrated on time.
    void wake();

    /// False while the kernel has this component in the skipped set.
    bool awake() const { return awake_.load(std::memory_order_relaxed); }

    /// Hierarchical instance name, e.g. "dut.rpu3.interconnect".
    const std::string& name() const { return name_; }

    /// The kernel this component is clocked by.
    Kernel& kernel() const { return kernel_; }

 protected:
    /// Current simulation time, for convenience in subclasses.
    Cycle now() const;

    /// Called (from the tick loop or a host-boundary sync) with the number
    /// of consecutive tick() calls that were skipped while asleep, before
    /// the next tick runs. Override to keep purely time-derived internal
    /// state (e.g. a halted core's cycle CSR) exact. A self-advancing
    /// component replays here the ticks idle_horizon() promised, possibly
    /// split at run() boundaries.
    virtual void on_wake(Cycle skipped_cycles) { (void)skipped_cycles; }

    /// Flush this component's skipped-cycle accounting *now*. Host-facing
    /// mutators must call this before changing any state that a sleeper's
    /// catch-up replay could observe (e.g. an IRQ status register the
    /// firmware polls), so the replayed cycles see pre-mutation state.
    void flush_skipped();

    // --- self-advance contract (timed sleep; DESIGN.md §11, §16) ----------
    //
    // Consulted only for components that opted in by setting
    // self_advancing_ (so the common case pays one flag test, not a
    // virtual call, per sleep sweep).

    /// How many upcoming ticks, starting at the current cycle, are pure
    /// internal time advance — no output, no staged state, no
    /// cross-component effect. The kernel (timer) and the shard runner
    /// (time skip) replay them through on_wake(), which must reproduce the
    /// live ticks bit for bit (replay the arithmetic; never summarize
    /// floating point). 0 is always correct; kForever: never without input.
    virtual Cycle idle_horizon() const { return 0; }

    /// Decoupled runs only: may local cycle `t` be decided right now?
    /// Return false when this component's tick at `t` depends on
    /// peer-shard state that is not yet conservatively bounded (e.g. a
    /// cut-FIFO admission too close to capacity while the consumer shard
    /// is behind). The runner then parks this shard until the peer
    /// advances.
    virtual bool decoupled_runnable(Cycle t) const {
        (void)t;
        return true;
    }

 protected:
    /// Subclasses overriding the hooks above must set this so the kernel
    /// and the shard runner know to consult them.
    bool self_advancing_ = false;

 private:
    friend class Kernel;

    Kernel& kernel_;
    std::string name_;

    std::atomic<bool> awake_{true};
    std::atomic<Cycle> wake_at_{0};  ///< first cycle allowed to tick again
    Cycle sleep_since_ = 0;          ///< first skipped cycle (if unaccounted_)
    bool unaccounted_ = false;       ///< skipped cycles not yet reported
    Cycle deadline_ = kForever;      ///< timer wake cycle (kForever: none)
    bool in_timers_ = false;         ///< listed in Kernel::timers_
};

/// The clock driver: owns the component/clocked registries and advances
/// simulated time. Host-side calls are not thread safe; one kernel per
/// simulated system.
class Kernel {
 public:
    /// Where the clock currently stands within Kernel::step().
    enum class Phase : uint8_t { kIdle, kTick, kCommit };

    Kernel();  // out of line: members reference the incomplete ShardRun
    ~Kernel();
    Kernel(const Kernel&) = delete;
    Kernel& operator=(const Kernel&) = delete;

    /// Register a component (called from Component's constructor).
    void add_component(Component* c) {
        components_.push_back(c);
        awake_count_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Register a non-component clocked element. A `lazy` element promises
    /// that commit() is the identity on cycles where it staged nothing and
    /// popped nothing; it is committed only when it called request_commit()
    /// that cycle (Fifo and Reg qualify). Non-lazy elements commit every
    /// cycle.
    void add_clocked(Clocked* c, bool lazy = false) {
        if (lazy)
            lazy_clocked_.push_back(c);
        else
            clocked_.push_back(c);
    }

    /// Queue a lazy clocked element for this cycle's clock edge. Idempotent
    /// per cycle; thread safe during a decoupled run (the per-element flag
    /// makes the queue duplicate-free and fifo/reg commits are mutually
    /// independent, so queue order is unobservable).
    void request_commit(Clocked* c) {
        if (c->commit_queued_.exchange(true, std::memory_order_relaxed)) return;
        if (decoupled_live_.load(std::memory_order_relaxed)) {
            decoupled_request_commit(c);
            return;
        }
        commit_queue_.push_back(c);
    }

    /// Advance the simulation by exactly one clock cycle. Timer sleepers
    /// due this cycle wake first (a host-phase wake: they tick this cycle).
    void step();

    /// Advance the simulation by `cycles` clock cycles. While every
    /// component sleeps, time jumps to the earliest timer or health-probe
    /// deadline, or the run's end: only a host-side call could wake
    /// anything sooner, and none can happen inside this loop.
    void run(Cycle cycles);

    /// Run until `pred()` returns true or `max_cycles` elapse.
    /// Returns true if the predicate fired. While the whole system sleeps,
    /// cycles advance without tick/commit work up to the next deadline,
    /// but `pred` is still evaluated each cycle (it may be time-dependent).
    template <typename Pred>
    bool run_until(Pred&& pred, Cycle max_cycles) {
        bool hit = false;
        for (Cycle i = 0; i < max_cycles; ++i) {
            if (pred()) {
                hit = true;
                break;
            }
            if (now_ < quiet_until()) {
                ++now_;  // the cycle is empty by construction
                ++fast_forwarded_;
            } else {
                step();
            }
        }
        if (!hit) hit = pred();
        sync_sleepers();
        return hit;
    }

    /// Current simulation time in cycles since reset. During a decoupled
    /// run (DESIGN.md §16) every shard thread sees its *local* clock here;
    /// between runs all clocks agree and this is the single global time.
    Cycle now() const {
        if (decoupled_live_.load(std::memory_order_relaxed)) return decoupled_now();
        return now_;
    }

    /// Current simulation time in nanoseconds.
    double now_ns() const { return cycles_to_ns(now()); }

    /// Number of registered components.
    size_t component_count() const { return components_.size(); }

    /// Registered components in current tick order (shard-spec builders
    /// map certified plan shards onto these).
    const std::vector<Component*>& components() const { return components_; }

    // --- phase/actor tracking (race detector substrate) ---------------------

    /// Where the clock stands right now (the calling shard's local phase
    /// during a decoupled run).
    Phase phase() const {
        if (decoupled_live_.load(std::memory_order_relaxed)) return decoupled_phase();
        return phase_;
    }

    /// True while some component's tick() is on the stack.
    bool in_tick() const { return phase() == Phase::kTick; }

    /// The component whose tick()/commit() is currently running (null
    /// between steps, i.e. for host/test code, and during a decoupled run).
    const Component* active_component() const { return active_; }

    /// Enable/disable the dynamic same-cycle race checks in Fifo/Reg.
    /// On by default: the checks are a handful of integer compares.
    void set_race_check(bool on) { race_check_ = on; }
    bool race_check() const { return race_check_; }

    // --- telemetry ------------------------------------------------------------

    /// Attach/detach the observability sink (obs::Telemetry). Null (the
    /// default) disables all event emission; the caller owns the sink and
    /// must detach (or outlive the kernel) before it dies. Events flow from
    /// the registered primitives and instrumented components; end_cycle
    /// fires once per step after all commits. Attaching a sink wakes every
    /// sleeper and disables idle skipping (idle_skip_effective() reports
    /// the effective state) so per-cycle accounting stays exact.
    void set_telemetry(TelemetrySink* sink) {
        if (sink) {
            sink->bind(*this);
            wake_all();
        }
        telemetry_ = sink;
    }
    TelemetrySink* telemetry() const { return telemetry_; }

    // --- health probe ---------------------------------------------------------

    /// Attach/detach the always-on health heartbeat (obs::HealthMonitor).
    /// Null (the default) costs one pointer compare per stepped cycle.
    /// Deliberately does NOT wake anything and does NOT disable idle
    /// skipping — the probe contract (sim/telemetry.h) tolerates
    /// fast-forward gaps up to its next_deadline(), which is what keeps the
    /// health layer within its production overhead budget. The caller owns
    /// the probe and must detach (or outlive the kernel) before it dies.
    void set_health_probe(HealthProbe* probe) { health_probe_ = probe; }
    HealthProbe* health_probe() const { return health_probe_; }

    // --- occupancy probes -----------------------------------------------------

    /// A registered on-demand reader of one net's committed occupancy.
    /// Primitives (sim::Fifo) and components owning abstract buffered links
    /// (fabric queues, RPU packet slots) register a getter at construction
    /// so the watchdog's backlog census, the metrics gauges and the
    /// telemetry sink's end-of-cycle pull can read committed occupancy at
    /// any host-phase point. Getters are never called during tick/commit.
    struct OccupancyProbe {
        NetId net = kNoNet;
        size_t capacity = 0;    ///< same unit as the getter (entries)
        const void* owner = nullptr;  ///< registrant, for matched removal
        std::function<size_t()> fn;   ///< committed occupancy right now
    };

    /// Register (or, for the same net, replace) an occupancy probe; a
    /// reconfigured accelerator's fresh primitive takes over its
    /// predecessor's net. The owner emits a telemetry event on `net` in
    /// every cycle that changes the occupancy (kOccupancy if no data moves).
    void register_occupancy_probe(NetId net, size_t capacity, const void* owner,
                                  std::function<size_t()> fn);

    /// Remove the probe for `net` iff `owner` still owns it. Owner-matched
    /// so that destroying a replaced (stale) registrant cannot drop its
    /// successor's probe during reconfiguration handover.
    void unregister_occupancy_probe(NetId net, const void* owner);

    /// The live probe on `net`, or null.
    const OccupancyProbe* occupancy_probe(NetId net) const {
        return net < net_slots_.size() && net_slots_[net].probe.fn
                   ? &net_slots_[net].probe
                   : nullptr;
    }

    /// All live occupancy probes, in NetId order (deterministic).
    std::vector<const OccupancyProbe*> occupancy_probes() const;

    /// Bumped by every new id and probe change (telemetry resyncs on it).
    uint64_t net_epoch() const { return net_epoch_; }

    // --- quiescence skipping --------------------------------------------------

    /// Master switch for the active set / fast-forward machinery (on by
    /// default; exact by construction). Turning it off wakes everything.
    void set_idle_skip(bool on);
    bool idle_skip() const { return idle_skip_; }

    /// True when skipping is actually applied this step.
    bool idle_skip_effective() const { return idle_skip_ && telemetry_ == nullptr; }

    /// Components currently in the active set.
    size_t awake_count() const { return awake_count_.load(std::memory_order_relaxed); }

    /// Wake every component (and report skipped cycles to each sleeper).
    /// Pending timers are cancelled.
    void wake_all();

    /// Report pending skipped cycles to every sleeper without waking it,
    /// so host code can observe exact time-derived state (core cycle
    /// counters) between runs. Called automatically at run()/run_until()
    /// boundaries.
    void sync_sleepers();

    /// Cumulative cycles whose tick/commit work was skipped by whole-
    /// system fast-forward (diagnostics for bench_simspeed).
    Cycle fast_forwarded_cycles() const { return fast_forwarded_; }

    /// Earliest pending timer deadline (kForever: none; may be stale-low).
    Cycle next_timer() const { return next_deadline_; }

    // --- time-decoupled execution (DESIGN.md §16) -----------------------------

    /// Install an executable shard specification (derived from a certified
    /// lint::ShardPlan — System::set_decouple_shards is the production
    /// path). Every registered component must appear in exactly one shard.
    /// Returns an empty string on success; otherwise a reason and nothing
    /// is installed. While installed and effective, run() executes each
    /// shard on its own worker thread (or cooperatively, per the spec's
    /// Exec) under a local cycle counter with conservative lookahead
    /// synchronization; timer sleepers wake on entry.
    std::string set_shard_spec(ShardSpec spec);

    /// Drop the installed spec; run() returns to the barrier executor.
    void clear_shard_spec();

    bool shard_spec_installed() const { return spec_ != nullptr; }

    /// True while a decoupled run() is in flight — i.e. the calling thread
    /// is on a shard-local clock. Cheap enough to poll per frame.
    bool decoupled_running() const {
        return decoupled_live_.load(std::memory_order_relaxed);
    }

    /// True when the next run() will use the decoupled executor: a spec is
    /// installed and nothing demanding a single global clock is attached
    /// (the race detector, a telemetry sink, a health probe, and
    /// commit-compat mode all require the barrier regime).
    bool decoupled_effective() const;

    /// Progress counter ("done" cursor) of an installed shard: the number
    /// of cycles that shard has completed in the current (or last) run.
    /// Stable for the lifetime of the spec — System binds these into the
    /// cut channels so endpoints can reason about peer progress.
    const std::atomic<Cycle>* shard_done_ptr(unsigned shard) const;

    /// Cumulative per-shard execution accounting while decoupled: how many
    /// local cycles ran through tick+commit vs were collapsed by time-skip
    /// jumps. Diagnostics only (bench_cluster reports it); empty unless a
    /// spec is installed. Read between runs, not during one.
    struct ShardProgress {
        uint64_t executed = 0;
        uint64_t skipped = 0;
        uint64_t jumps = 0;
    };
    std::vector<ShardProgress> decoupled_progress() const;

    // --- baseline-compat (A/B benchmarking) -----------------------------------

    /// Emulate the pre-fast-path kernel's per-cycle regime: every clocked
    /// primitive commits every cycle (no lazy commit queue, no identity
    /// early-outs), no component sleeps on a timer, and the datapath
    /// components drop their occupancy-count scan guards. Results are
    /// bit-identical either way — this exists so bench_simspeed can
    /// measure the fast path against an honest reference inside one
    /// binary. Off by default; never enable outside benchmarking.
    void set_commit_compat(bool on) { commit_compat_ = on; }
    bool commit_compat() const { return commit_compat_; }

    /// Reference-only: turn timed sleep off (on by default), restoring the
    /// regime bench_cluster keeps as its calibration reference. Results
    /// are bit-identical either way; armed timers still fire.
    void set_timed_sleep(bool on) { timed_sleep_ = on; }

    // --- tick-order shuffling -------------------------------------------------

    /// Deterministically permute the component tick order under `seed`.
    /// Because all inter-component state flows through registered
    /// primitives, any permutation must produce a bit-identical run; the
    /// determinism tests assert exactly that. Components registered after
    /// the shuffle are appended in registration order. Commit order is
    /// left untouched (commits are mutually independent by construction).
    void shuffle_tick_order(uint64_t seed);

    /// Current tick order, for diagnostics.
    std::vector<std::string> tick_order() const;

    // --- elaboration netlist ---------------------------------------------------

    /// Record a net and return its dense id. Re-declaring a name (a
    /// reconfigured accelerator) replaces the record under the same id.
    NetId declare_net(NetRecord net);

    /// The id for `name`, assigning one without declaring a net if the
    /// name is new (a probe on a non-netlist structure, a by-name event).
    NetId intern_net(const std::string& name);

    /// The id for `name`, or kNoNet if it was never declared or interned.
    NetId net_id(const std::string& name) const {
        auto it = net_ids_.find(name);
        return it == net_ids_.end() ? kNoNet : it->second;
    }

    size_t net_id_count() const { return net_slots_.size(); }

    const std::string& net_name(NetId net) const { return *net_slots_[net].name; }

    /// The declared record for `net`, or null if it was only interned.
    const NetRecord* net_record(NetId net) const {
        return net < net_slots_.size() && net_slots_[net].record != kNoNet
                   ? &nets_[net_slots_[net].record]
                   : nullptr;
    }

    /// Record a directed port. Exact duplicates are dropped.
    void declare_port(PortRecord port);

    const std::vector<NetRecord>& nets() const { return nets_; }
    const std::vector<PortRecord>& ports() const { return ports_; }

    // --- wake edges (net -> reader components) ---------------------------------

    /// True once the wake-edge map reflects the current netlist. The map
    /// is (re)built lazily before the first sleep sweep and after any
    /// netlist change.
    bool wake_map_built() const { return wake_map_built_; }

    /// Components woken by activity on `net` per the elaboration netlist
    /// (its readers, plus its writers when the net returns registered
    /// credit), or null if none are registered. Valid until the next
    /// netlist change; an index, so callers need not cache it.
    const std::vector<Component*>* wake_list(NetId net) const {
        return net < net_slots_.size() && !net_slots_[net].wake.empty()
                   ? &net_slots_[net].wake
                   : nullptr;
    }

    /// Hook run once, immediately before the first step(). System installs
    /// the static lint pass here so that everything constructed up front —
    /// including traffic sources added after the System — is elaborated
    /// and checked before cycle 0.
    void set_prestep_hook(std::function<void(Kernel&)> fn) {
        prestep_hook_ = std::move(fn);
    }

 private:
    friend class Component;

    struct ShardRun;

    /// The first cycle that must be stepped: now_ unless everything sleeps,
    /// else the earliest timer or health-probe deadline (maybe passed).
    Cycle quiet_until() const {
        if (!prestep_done_ || !idle_skip_effective() ||
            awake_count_.load(std::memory_order_relaxed) != 0)
            return now_;
        Cycle until = next_deadline_;
        if (health_probe_) {
            const Cycle d = health_probe_->next_deadline();
            if (d < until) until = d;
        }
        return until;
    }

    void note_wake(Component& c);
    void flush_wake_accounting(Component* c);
    void sleep_sweep();
    void wake_timers(bool all);
    void build_wake_map();
    void decoupled_request_commit(Clocked* c);
    Cycle decoupled_now() const;
    Phase decoupled_phase() const;
    void run_decoupled(Cycle cycles);
    bool advance_shard(ShardRun& sr, Cycle budget);
    void run_shard_threaded(ShardRun& sr);
    void shard_sleep_sweep(ShardRun& sr, Cycle next);

    std::vector<Component*> components_;
    std::vector<Clocked*> clocked_;
    std::vector<Clocked*> lazy_clocked_;
    std::vector<Clocked*> commit_queue_;
    std::mutex commit_queue_mu_;
    Cycle now_ = 0;

    Phase phase_ = Phase::kIdle;
    const Component* active_ = nullptr;
    bool race_check_ = true;
    TelemetrySink* telemetry_ = nullptr;
    HealthProbe* health_probe_ = nullptr;
    uint64_t net_epoch_ = 0;

    bool idle_skip_ = true;
    bool commit_compat_ = false;
    bool timed_sleep_ = true;
    std::atomic<size_t> awake_count_{0};
    Cycle fast_forwarded_ = 0;

    /// Deadline store: timer sleepers, each listed once (a cancelled entry
    /// is dropped at the next due scan), plus the cached earliest deadline.
    /// The scan costs ~0.1% of host time at low load (gprof): no heap.
    std::vector<Component*> timers_;
    Cycle next_deadline_ = kForever;

    bool wake_map_built_ = false;

    std::unique_ptr<ShardSpec> spec_;
    std::vector<std::unique_ptr<ShardRun>> shard_runs_;
    std::atomic<bool> decoupled_live_{false};
    /// The shard the calling thread executes during a decoupled run (null
    /// on host threads and between runs). Static: shard identity is a
    /// property of the thread, and one thread never serves two kernels at
    /// once (each board's kernel runs on its own thread in a cluster).
    static thread_local ShardRun* t_shard_;

    struct NetSlot {  ///< everything keyed by NetId
        const std::string* name = nullptr;  ///< key in net_ids_ (nodes are stable)
        NetId record = kNoNet;              ///< index into nets_ once declared
        std::vector<Component*> wake;       ///< wake-edge targets
        OccupancyProbe probe;               ///< live iff probe.fn
    };

    std::vector<NetRecord> nets_;
    std::vector<NetSlot> net_slots_;
    std::unordered_map<std::string, NetId> net_ids_;
    std::vector<PortRecord> ports_;
    std::function<void(Kernel&)> prestep_hook_;
    bool prestep_done_ = false;
};

inline Cycle Component::now() const { return kernel_.now(); }

inline void
Component::wake() {
    if (!awake_.exchange(true, std::memory_order_relaxed)) kernel_.note_wake(*this);
}

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_KERNEL_H

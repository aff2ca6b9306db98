#include "sim/kernel.h"

#include <algorithm>
#include <unordered_map>

namespace rosebud::sim {

namespace {

/// Shortest idle horizon worth a timer (see Kernel::sleep_sweep).
constexpr Cycle kMinTimedSleep = 4;

}  // namespace

Component::Component(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
    kernel.add_component(this);
}

void
TelemetrySink::net_event(NetId net, NetEvent ev) {
    if (bound_kernel_) net_event(bound_kernel_->net_name(net), ev);
}

void
Kernel::note_wake(Component& c) {
    if (phase_ != Phase::kIdle) {
        // A wake during the tick (or, defensively, commit) phase defers
        // the first scheduled tick to the next cycle: the sleeper could
        // not have observed the producer's staged output anyway, and
        // deferring keeps every tick order bit-identical regardless of
        // whether the sleeper's slot had already been passed. The skipped
        // window — *including* the current cycle — is accounted right
        // here, while committed state is still exactly what the sleeper
        // would have observed live (the producer's effect is only staged);
        // its commit() still runs this cycle, integrating any state the
        // producer handed over.
        const Cycle t = now_;
        if (c.unaccounted_) {
            Cycle skipped = t + 1 - c.sleep_since_;
            if (skipped > 0) c.on_wake(skipped);
            c.sleep_since_ = t + 1;
            c.unaccounted_ = false;
        }
        c.wake_at_ = t + 1;
    } else {
        // Host-phase wake: the component ticks this coming cycle; its
        // accounting is flushed by the tick loop (host mutators that
        // change sleeper-visible state call flush_skipped() first).
        c.wake_at_ = now_;
    }
    c.deadline_ = kForever;  // an early wake cancels the timer
    ++awake_count_;
}

void
Kernel::flush_wake_accounting(Component* c) {
    if (!c->unaccounted_) return;
    Cycle skipped = now_ - c->sleep_since_;
    if (skipped > 0) c->on_wake(skipped);
    c->sleep_since_ = now_;
    // A component flushed while still asleep (host-boundary sync) keeps
    // accumulating from here; a woken one is fully accounted.
    c->unaccounted_ = !c->awake_;
}

void
Component::flush_skipped() { kernel_.flush_wake_accounting(this); }

void
Kernel::sync_sleepers() {
    for (Component* c : components_) flush_wake_accounting(c);
}

void
Kernel::wake_all() {
    for (Component* c : components_) {
        if (!c->awake_) {
            c->awake_ = true;
            c->wake_at_ = now_;
            ++awake_count_;
        }
        c->deadline_ = kForever;
        c->in_timers_ = false;
        flush_wake_accounting(c);
    }
    timers_.clear();
    next_deadline_ = kForever;
}

void
Kernel::set_idle_skip(bool on) {
    idle_skip_ = on;
    if (!on) wake_all();
}

void
Kernel::sleep_sweep() {
    const bool timed = timed_sleep_ && !commit_compat_;
    for (Component* c : components_) {
        if (!c->awake_) continue;
        // Just-woken components get one tick before they may sleep again.
        if (c->wake_at_ >= now_) continue;
        Cycle deadline = kForever;
        if (!c->quiescent()) {
            // Timed sleep until the promise runs out. Short windows are
            // not worth the wake (sweeps run every 4th cycle anyway).
            if (!timed || !c->self_advancing_) continue;
            const Cycle h = c->idle_horizon();
            if (h < kMinTimedSleep) continue;
            deadline = h >= kForever - now_ ? kForever : now_ + h;
        }
        c->awake_ = false;
        --awake_count_;
        if (!c->unaccounted_) {
            c->sleep_since_ = now_;  // now_ is already the next cycle here
            c->unaccounted_ = true;
        }
        if (deadline == kForever) continue;
        c->deadline_ = deadline;
        if (!c->in_timers_) {
            c->in_timers_ = true;
            timers_.push_back(c);
        }
        if (deadline < next_deadline_) next_deadline_ = deadline;
    }
}

/// Host-phase wake of the due timer sleepers: each ticks this cycle after
/// on_wake() replays its window.
void
Kernel::wake_timers() {
    Cycle next = kForever;
    size_t keep = 0;
    for (Component* c : timers_) {
        if (c->deadline_ == kForever) {
            c->in_timers_ = false;  // cancelled by an early wake
        } else if (c->deadline_ <= now_) {
            c->deadline_ = kForever;
            c->in_timers_ = false;
            c->awake_ = true;
            c->wake_at_ = now_;
            ++awake_count_;
        } else {
            if (c->deadline_ < next) next = c->deadline_;
            timers_[keep++] = c;
        }
    }
    timers_.resize(keep);
    next_deadline_ = next;
}

void
Kernel::build_wake_map() {
    for (NetSlot& n : net_slots_) n.wake.clear();
    std::unordered_map<std::string, Component*> by_name;
    by_name.reserve(components_.size());
    for (Component* c : components_) by_name[c->name()] = c;
    for (const PortRecord& p : ports_) {
        // Registered-credit nets return credit with one cycle of latency: a
        // pop is an observable event for the *writer* (its can_push answer
        // changes next cycle), so the writer needs a wake edge too — a
        // producer sleeping on a full FIFO must tick again when space opens.
        const NetId net = intern_net(p.net);
        if (p.dir == PortRecord::kWrite) {
            const NetRecord* rec = net_record(net);
            if (!rec || rec->credit != NetRecord::kCreditRegistered) continue;
        }
        auto it = by_name.find(p.component);
        if (it == by_name.end()) continue;  // external endpoint (host, wire)
        auto& targets = net_slots_[net].wake;
        if (std::find(targets.begin(), targets.end(), it->second) == targets.end())
            targets.push_back(it->second);
    }
    wake_map_built_ = true;
}

void
Kernel::step() {
    if (!prestep_done_) {
        prestep_done_ = true;
        if (prestep_hook_) prestep_hook_(*this);
    }
    const bool skipping = idle_skip_effective();
    if (skipping && !wake_map_built_) build_wake_map();
    if (now_ >= next_deadline_) wake_timers();

    phase_ = Phase::kTick;
    for (Component* c : components_) {
        if (!c->awake_) continue;
        if (c->wake_at_ > now_) continue;
        // Set the actor before flushing: on_wake() may replay component
        // ticks that touch the component's own FIFOs.
        active_ = c;
        flush_wake_accounting(c);
        c->tick();
    }
    active_ = nullptr;

    phase_ = Phase::kCommit;
    for (Component* c : components_) {
        // Commits run for every awake component — including ones woken
        // mid-tick whose first tick is next cycle: their staged input
        // (e.g. an RPU's rx_pending_) must be integrated this edge.
        if (!c->awake_) continue;
        active_ = c;
        c->commit();
    }
    active_ = nullptr;
    for (Clocked* c : clocked_) c->commit();
    if (commit_compat_) {
        // The baseline-compat benchmark mode sweeps the whole lazy set for
        // cost parity with the pre-fast-path kernel.
        for (Clocked* c : lazy_clocked_) {
            c->commit_queued_ = false;
            c->commit();
        }
        commit_queue_.clear();
    } else {
        // Index loop: commits above (e.g. a component integrating staged
        // input into one of its FIFOs) may append while we drain.
        for (size_t i = 0; i < commit_queue_.size(); ++i) {
            Clocked* c = commit_queue_[i];
            c->commit_queued_ = false;
            c->commit();
        }
        commit_queue_.clear();
    }
    phase_ = Phase::kIdle;
    if (telemetry_) telemetry_->end_cycle(now_);
    if (health_probe_) health_probe_->on_cycle(now_);
    ++now_;
    // Sweep for sleepers every 4th cycle only: quiescent() is virtual and
    // the sweep polls every awake component. Delaying sleep is always exact
    // (a quiescent component's live ticks match its on_wake replay); it
    // only costs at most 3 extra stepped cycles per sleep transition.
    if (skipping && (now_ & 3) == 0) sleep_sweep();
}

void
Kernel::run(Cycle cycles) {
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        const Cycle until = std::min(quiet_until(), end);
        if (until > now_) {
            fast_forwarded_ += until - now_;
            now_ = until;
            continue;
        }
        step();
    }
    sync_sleepers();
}

namespace {

// splitmix64: small, well-mixed PRNG for the deterministic shuffle.
uint64_t
mix64(uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

void
Kernel::shuffle_tick_order(uint64_t seed) {
    uint64_t state = seed;
    // Fisher-Yates over the current registration order.
    for (size_t i = components_.size(); i > 1; --i) {
        size_t j = size_t(mix64(state) % i);
        std::swap(components_[i - 1], components_[j]);
    }
}

std::vector<std::string>
Kernel::tick_order() const {
    std::vector<std::string> names;
    names.reserve(components_.size());
    for (const Component* c : components_) names.push_back(c->name());
    return names;
}

void
Kernel::register_occupancy_probe(NetId net, size_t capacity, const void* owner,
                                 std::function<size_t()> fn) {
    net_slots_[net].probe = {net, capacity, owner, std::move(fn)};
    ++net_epoch_;
}

void
Kernel::unregister_occupancy_probe(NetId net, const void* owner) {
    OccupancyProbe& p = net_slots_[net].probe;
    if (p.owner != owner) return;
    p = OccupancyProbe{};
    ++net_epoch_;
}

std::vector<const Kernel::OccupancyProbe*>
Kernel::occupancy_probes() const {
    std::vector<const OccupancyProbe*> out;
    for (const NetSlot& n : net_slots_)
        if (n.probe.fn) out.push_back(&n.probe);
    return out;
}

NetId
Kernel::intern_net(const std::string& name) {
    auto [it, fresh] = net_ids_.try_emplace(name, NetId(net_slots_.size()));
    if (fresh) {
        net_slots_.push_back({&it->first, kNoNet, {}, {}});
        ++net_epoch_;
    }
    return it->second;
}

NetId
Kernel::declare_net(NetRecord net) {
    wake_map_built_ = false;
    const NetId id = intern_net(net.name);
    NetId& record = net_slots_[id].record;
    if (record == kNoNet) {
        record = NetId(nets_.size());
        nets_.push_back(std::move(net));
    } else {
        nets_[record] = std::move(net);
    }
    return id;
}

void
Kernel::declare_port(PortRecord port) {
    for (const PortRecord& p : ports_) {
        if (p.component == port.component && p.net == port.net &&
            p.dir == port.dir && p.width_bits == port.width_bits &&
            p.depth == port.depth) {
            return;
        }
    }
    wake_map_built_ = false;
    ports_.push_back(std::move(port));
}

}  // namespace rosebud::sim

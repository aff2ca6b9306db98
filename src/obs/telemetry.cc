#include "obs/telemetry.h"

#include <algorithm>
#include <iterator>

#include "core/system.h"
#include "lint/netlist.h"
#include "sim/kernel.h"
#include "sim/stats.h"

namespace rosebud::obs {

namespace {

unsigned
bits_for(size_t max_value) {
    unsigned bits = 1;
    while ((uint64_t(1) << bits) <= max_value && bits < 32) ++bits;
    return bits;
}

}  // namespace

Telemetry::Telemetry() : Telemetry(Config{}) {}

Telemetry::Telemetry(Config cfg) : cfg_(std::move(cfg)) {}

Telemetry::~Telemetry() { detach(); }

void
Telemetry::attach(System& sys) {
    kernel_ = &sys.kernel();
    stats_ = &sys.stats();
    // Pre-seed every declared net so fully idle nets still show up with an
    // exact idle count (and so waveform widths come from declared depths).
    for (const auto& rec : kernel_->nets()) track(kernel_->net_id(rec.name));
    sync_nets();
    for (const auto& name : cfg_.watch_counters) counter_prev_[name] = stats_->get(name);
    kernel_->set_telemetry(this);
}

void
Telemetry::detach() {
    if (kernel_ && kernel_->telemetry() == this) kernel_->set_telemetry(nullptr);
    kernel_ = nullptr;
    stats_ = nullptr;
}

void
Telemetry::track(sim::NetId id) {
    if (id >= hot_.size()) {
        const size_t n = std::max<size_t>(id + 1, kernel_->net_id_count());
        hot_.resize(n);
        slots_.resize(n);
    }
    if (hot_[id].rank != kUntracked) return;
    // First sighting. A net that appears mid-run (e.g. created by a
    // reconfigured RPU) needs no backfill: idle is derived. The rank is
    // provisional until the resort.
    hot_[id].rank = uint32_t(order_.size());
    Slot& s = slots_[id];
    s.name = kernel_->net_name(id);
    if (const sim::NetRecord* rec = kernel_->net_record(id)) s.st.capacity = rec->depth;
    order_.push_back(id);
    visit_.resize((order_.size() + 63) / 64);
    resort_ = true;
}

void
Telemetry::sync_nets() {
    // Declared nets are observed from the cycle their occupancy probe
    // appears. A (re)registered probe may bring a new occupancy, so the
    // resort this forces re-reads every net once.
    synced_net_epoch_ = kernel_->net_epoch();
    for (sim::NetId id = 0; id < kernel_->net_id_count(); ++id)
        if (kernel_->occupancy_probe(id) && kernel_->net_record(id)) track(id);
    resort_ = true;
}

void
Telemetry::net_event(sim::NetId id, NetEvent ev) {
    if (id >= hot_.size() || hot_[id].rank == kUntracked) {
        if (!kernel_) return;
        track(id);
    }
    Hot& h = hot_[id];
    ++h.events[size_t(ev)];
    mark(h.rank);
}

void
Telemetry::net_event(const std::string& net, NetEvent ev) {
    if (kernel_) net_event(kernel_->intern_net(net), ev);
}

std::map<std::string, Telemetry::NetStats>
Telemetry::nets() const {
    std::map<std::string, NetStats> out;
    for (sim::NetId id : order_) {
        NetStats& ns = out[slots_[id].name] = slots_[id].st;
        ns.idle = cycles_observed_ - ns.busy - ns.stalled - ns.starved;
    }
    return out;
}

void
Telemetry::capture_net(Slot& s, NetState state, uint64_t completed_cycle) {
    const uint64_t t = uint64_t(sim::cycles_to_ns(completed_cycle));
    if (s.sig_state < 0) {
        s.sig_state = vcd_.add_signal(s.name + ".state", 2);
        // Eventless links never report occupancy; give them no occ trace.
        s.sig_occ = vcd_.add_signal(s.name + ".occ",
                                    bits_for(std::max(s.st.capacity, s.st.peak_occ)));
    }
    if (unsigned(state) != s.last_state) {
        vcd_.change(t, s.sig_state, uint64_t(state));
        s.last_state = unsigned(state);
    }
    if (uint64_t(s.st.occ) != s.last_occ) {
        vcd_.change(t, s.sig_occ, uint64_t(s.st.occ));
        s.last_occ = uint64_t(s.st.occ);
    }
}

void
Telemetry::visit(sim::NetId id, uint64_t completed) {
    Slot& s = slots_[id];
    uint32_t* events = hot_[id].events;
    const auto count = [events](NetEvent ev) { return events[size_t(ev)]; };
    // Occupancy changes only on cycles that move data or say so.
    if (count(NetEvent::kPushOk) || count(NetEvent::kPop) || count(NetEvent::kOccupancy)) {
        if (const sim::Kernel::OccupancyProbe* probe = kernel_->occupancy_probe(id)) {
            s.st.occ = probe->fn();
            s.st.peak_occ = std::max(s.st.peak_occ, s.st.occ);
            if (probe->capacity) s.st.capacity = probe->capacity;
        }
    }
    s.st.pushes += count(NetEvent::kPushOk);
    s.st.blocked += count(NetEvent::kPushBlocked);
    s.st.pops += count(NetEvent::kPop);
    s.st.polls_empty += count(NetEvent::kPollEmpty);
    NetState state = NetState::kIdle;
    if (count(NetEvent::kPushBlocked)) {
        state = NetState::kStalled;
        ++s.st.stalled;
        ++s.e_stalled;
    } else if (count(NetEvent::kPushOk) || count(NetEvent::kPop)) {
        state = NetState::kBusy;
        ++s.st.busy;
        ++s.e_busy;
    } else if (count(NetEvent::kPollEmpty)) {
        state = NetState::kStarved;
        ++s.st.starved;
    }
    std::fill(events, events + std::size(hot_[id].events), 0);
    if (cfg_.capture_vcd) capture_net(s, state, completed);
    // A waveform that left idle must be revisited to fall back.
    if (cfg_.capture_vcd && state != NetState::kIdle) mark(hot_[id].rank);
}

void
Telemetry::end_cycle(uint64_t completed) {
    if (!kernel_) return;
    if (kernel_->net_epoch() != synced_net_epoch_) sync_nets();
    if (resort_) {
        // New nets or probes: restore name order and re-read every net's
        // occupancy once (a visit to an unchanged net records nothing).
        std::sort(order_.begin(), order_.end(), [this](sim::NetId a, sim::NetId b) {
            return slots_[a].name < slots_[b].name;
        });
        for (size_t r = 0; r < order_.size(); ++r) {
            Hot& h = hot_[order_[r]];
            h.rank = uint32_t(r);
            ++h.events[size_t(NetEvent::kOccupancy)];
            mark(uint32_t(r));
        }
        resort_ = false;
    }
    // Visit marked nets in name order; a visit may re-mark its net for the
    // next cycle, which lands in the word already taken.
    for (size_t w = 0; w < visit_.size(); ++w) {
        uint64_t bits = visit_[w];
        visit_[w] = 0;
        while (bits) {
            visit(order_[w * 64 + size_t(__builtin_ctzll(bits))], completed);
            bits &= bits - 1;
        }
    }
    ++cycles_observed_;
    if (cfg_.epoch_cycles && cycles_observed_ % cfg_.epoch_cycles == 0) close_epoch();
}

void
Telemetry::close_epoch() {
    Epoch ep;
    ep.end_cycle = cycles_observed_;
    // Per-component busy/stall fractions: average over the component's
    // instrumented nets (each net contributes epoch_cycles observations).
    std::map<std::string, uint64_t> comp_busy, comp_stalled, comp_nets;
    for (sim::NetId id : order_) {
        Slot& s = slots_[id];
        const std::string comp = lint::component_of(s.name);
        comp_busy[comp] += s.e_busy;
        comp_stalled[comp] += s.e_stalled;
        comp_nets[comp] += 1;
        s.e_busy = s.e_stalled = 0;
    }
    for (const auto& [comp, n] : comp_nets) {
        const double denom = double(n) * double(cfg_.epoch_cycles);
        ep.busy_frac[comp] = double(comp_busy[comp]) / denom;
        ep.stall_frac[comp] = double(comp_stalled[comp]) / denom;
    }
    if (stats_) {
        for (const auto& name : cfg_.watch_counters) {
            const uint64_t now = stats_->get(name);
            ep.counter_delta[name] = now - counter_prev_[name];
            counter_prev_[name] = now;
        }
    }
    epochs_.push_back(std::move(ep));
    if (cfg_.max_epochs && epochs_.size() > cfg_.max_epochs) coarsen_epochs();
}

void
Telemetry::coarsen_epochs() {
    // Merge adjacent pairs: each fraction averages weighted by how many
    // base epochs the entries already cover, counter deltas sum, so the
    // coarse series conserves the totals of the fine one.
    std::vector<Epoch> merged;
    merged.reserve(epochs_.size() / 2 + 1);
    size_t i = 0;
    for (; i + 1 < epochs_.size(); i += 2) {
        Epoch& a = epochs_[i];
        Epoch& b = epochs_[i + 1];
        Epoch m;
        m.end_cycle = b.end_cycle;
        m.span = a.span + b.span;
        const double wa = double(a.span) / double(m.span);
        const double wb = double(b.span) / double(m.span);
        for (const auto& [comp, f] : a.busy_frac) m.busy_frac[comp] += f * wa;
        for (const auto& [comp, f] : b.busy_frac) m.busy_frac[comp] += f * wb;
        for (const auto& [comp, f] : a.stall_frac) m.stall_frac[comp] += f * wa;
        for (const auto& [comp, f] : b.stall_frac) m.stall_frac[comp] += f * wb;
        for (const auto& [name, d] : a.counter_delta) m.counter_delta[name] += d;
        for (const auto& [name, d] : b.counter_delta) m.counter_delta[name] += d;
        merged.push_back(std::move(m));
    }
    if (i < epochs_.size()) merged.push_back(std::move(epochs_.back()));
    epochs_.swap(merged);
}

}  // namespace rosebud::obs

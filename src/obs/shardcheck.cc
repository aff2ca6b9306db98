#include "obs/shardcheck.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>

#include "core/system.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "sim/log.h"

namespace rosebud::obs {

ShardLatencyRecorder::ShardLatencyRecorder(const sim::Kernel& kernel,
                                           const lint::ShardPlan& plan,
                                           sim::TelemetrySink* next,
                                           bool fault_on_undercut)
    : kernel_(kernel), next_(next), fault_on_undercut_(fault_on_undercut) {
    std::map<std::string, unsigned> certified;
    for (const lint::ShardCut& c : plan.cuts) {
        if (c.edge.kind != lint::LatencyEdge::kData) continue;
        unsigned& bound = certified[c.edge.net];
        bound = bound == 0 ? c.edge.latency : std::min(bound, c.edge.latency);
    }
    watched_.assign(kernel.net_id_count(), sim::kNoNet);
    for (const auto& [net, bound] : certified) {
        const sim::NetId id = kernel.net_id(net);
        if (id != sim::kNoNet) watched_[id] = uint32_t(nets_.size());
        NetState st;
        st.net = net;
        st.certified = bound;
        nets_.push_back(std::move(st));
    }
    if (next_) next_->bind(kernel);
}

void
ShardLatencyRecorder::net_event(sim::NetId net, NetEvent ev) {
    if (next_) next_->net_event(net, ev);
    observe(net, ev);
}

void
ShardLatencyRecorder::net_event(const std::string& net, NetEvent ev) {
    if (next_) next_->net_event(net, ev);
    observe(kernel_.net_id(net), ev);
}

void
ShardLatencyRecorder::observe(sim::NetId net, NetEvent ev) {
    if (net >= watched_.size() || watched_[net] == sim::kNoNet) return;
    NetState& st = nets_[watched_[net]];

    const sim::Kernel::Phase phase = kernel_.phase();
    if (ev == NetEvent::kPushOk) {
        if (phase != sim::Kernel::Phase::kTick) {
            // Host-phase injection bypasses the registered staging the
            // certificate reasons about; resync rather than measure.
            st.pending.clear();
            return;
        }
        st.pending.push_back(kernel_.now());
        // A net whose pops we never see (e.g. a drain the emitter does not
        // instrument) must not grow without bound; losing the oldest
        // entries only ever over-states latency, never under-states it.
        if (st.pending.size() > (1u << 16)) st.pending.pop_front();
    } else if (ev == NetEvent::kPop) {
        if (st.pending.empty()) return;  // resynced or pre-attach push
        if (phase == sim::Kernel::Phase::kIdle) {
            st.pending.pop_front();  // host drain: consume, claim nothing
            return;
        }
        uint64_t pushed = st.pending.front();
        st.pending.pop_front();
        uint64_t lat = kernel_.now() - pushed;
        ++st.messages;
        st.min_latency = std::min(st.min_latency, lat);
        if (lat < st.certified) {
            st.undercut = true;
            undercut_seen_ = true;
            if (fault_on_undercut_) {
                sim::fatal("shard-cut certificate violated on net '" + st.net +
                           "': observed cross-cut latency " + std::to_string(lat) +
                           " < certified bound " + std::to_string(st.certified) +
                           " @cycle " + std::to_string(kernel_.now()));
            }
        }
    }
}

void
ShardLatencyRecorder::end_cycle(uint64_t completed) {
    if (next_) next_->end_cycle(completed);
}

std::vector<CutLatency>
ShardLatencyRecorder::observations() const {
    std::vector<CutLatency> out;
    for (const NetState& st : nets_) {
        CutLatency c;
        c.net = st.net;
        c.certified = st.certified;
        c.messages = st.messages;
        c.min_latency = st.messages ? st.min_latency : 0;
        c.undercut = st.undercut;
        out.push_back(std::move(c));
    }
    return out;
}

std::string
ShardLatencyRecorder::report() const {
    std::ostringstream os;
    os << "shard-cut latency cross-check (" << nets_.size() << " cut nets)\n";
    for (const CutLatency& c : observations()) {
        os << "  " << c.net << ": certified >= " << c.certified << ", ";
        if (c.messages == 0) {
            os << "no messages observed\n";
        } else {
            os << "observed min " << c.min_latency << " over " << c.messages
               << " messages" << (c.undercut ? " [UNDERCUT]" : " [ok]") << "\n";
        }
    }
    return os.str();
}

namespace {

/// The check workload: a booted forwarder with seeded two-port traffic.
std::unique_ptr<System>
build_check_system(const ShardCheckSpec& spec) {
    SystemConfig scfg;
    scfg.rpu_count = spec.rpu_count;
    auto sys = std::make_unique<System>(scfg);

    fwlib::Program fw = fwlib::forwarder();
    sys->host().load_firmware_all(fw.image, fw.entry);
    sys->host().boot_all();

    // Two-port traffic so both MAC boundaries carry cross-cut messages.
    for (unsigned port = 0; port < 2; ++port) {
        net::TrafficSpec tspec;
        tspec.packet_size = spec.packet_size;
        tspec.seed = spec.seed * 2654435761u + port;
        auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
        dist::TrafficSource::Config src;
        src.port = port;
        src.load = spec.load;
        sys->add_source(src, [gen] { return gen->next(); });
    }
    return sys;
}

}  // namespace

ShardCheckResult
run_shard_check(const ShardCheckSpec& spec) {
    std::unique_ptr<System> sys = build_check_system(spec);

    ShardCheckResult res;
    res.plan = sys->shard_plan(spec.shards);
    std::string why;
    bool plan_ok = lint::validate_plan(sys->kernel(), res.plan, &why);

    ShardLatencyRecorder rec(sys->kernel(), res.plan, nullptr,
                             spec.fault_on_undercut);
    sys->kernel().set_telemetry(&rec);
    sys->run_cycles(spec.run_cycles);
    sys->kernel().set_telemetry(nullptr);

    res.cuts = rec.observations();
    res.cycles = spec.run_cycles;
    for (const CutLatency& c : res.cuts) res.messages += c.messages;
    res.ok = plan_ok && rec.ok();

    return res;
}

}  // namespace rosebud::obs

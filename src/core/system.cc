#include "core/system.h"

#include <cstring>
#include <thread>
#include <unordered_map>

#include "sim/log.h"
#include "sim/shard.h"

namespace rosebud {

sim::ResourceFootprint
pr_region_capacity(unsigned rpu_count) {
    // Floorplan constants of the two shipped layouts (Figures 5-6).
    if (rpu_count > 8) return {27839, 55920, 36, 32, 168};
    return {64161, 128880, 114, 64, 384};
}

sim::ResourceFootprint
lb_region_capacity(unsigned rpu_count) {
    if (rpu_count > 8) return {78384, 158400, 144, 48, 576};
    return {114016, 230400, 180, 96, 648};
}

System::System(const SystemConfig& config) : config_(config) {
    if (config_.rpu_count == 0 || config_.rpu_count > 32 || config_.rpu_count % 4 != 0) {
        sim::fatal("System: rpu_count must be a positive multiple of 4 (<= 32)");
    }

    // RPUs first, then broadcast/fabric/sources: a deterministic default
    // tick order. Results must not depend on it — every cross-component
    // exchange goes through staged primitives, the race detector faults
    // same-cycle stage/read overlaps, and shuffle_tick_order() + the
    // fingerprint tests enforce bit-identical runs under any permutation.
    for (unsigned i = 0; i < config_.rpu_count; ++i) {
        rpu::Rpu::Config rc = config_.rpu_template;
        rc.id = uint8_t(i);
        rpus_.push_back(std::make_unique<rpu::Rpu>(kernel_, stats_, rc));
    }

    lb::LoadBalancer::Config lbc;
    lbc.rpu_count = config_.rpu_count;
    lbc.policy = config_.lb_policy;
    lbc.reassembler = config_.hw_reassembler;
    lbc.custom_steer = config_.lb_custom_steer;
    lb_ = std::make_unique<lb::LoadBalancer>(stats_, lbc);
    lb_->attach(kernel_);

    msg::BroadcastNetwork::Config bc = config_.broadcast;
    bc.rpu_count = config_.rpu_count;
    broadcast_ = std::make_unique<msg::BroadcastNetwork>(kernel_, stats_, bc);

    dist::FabricConfig fc = config_.fabric;
    fc.rpu_count = config_.rpu_count;
    std::vector<rpu::Rpu*> raw;
    for (auto& r : rpus_) raw.push_back(r.get());
    fabric_ = std::make_unique<dist::Fabric>(kernel_, stats_, fc, *lb_, raw);

    host_ = std::make_unique<host::HostContext>(kernel_, stats_, *lb_, *fabric_, raw);
    host_->set_firmware_check(config_.firmware_check);
    host_->set_wcet_check(config_.wcet_check);
    host_->set_wcet_budget_cycles(config_.wcet_budget_cycles);

    // Wire the control and data channels.
    for (unsigned i = 0; i < config_.rpu_count; ++i) {
        rpu::Rpu* r = raw[i];
        r->set_egress_handler(
            [this, i](net::PacketPtr pkt) { return fabric_->rpu_egress(uint8_t(i), pkt); });
        r->set_slot_free_handler(
            [this](uint8_t rpu, uint8_t slot) { lb_->on_slot_free(rpu, slot); });
        r->set_slot_config_handler([this](uint8_t rpu, const rpu::SlotConfig& cfg) {
            lb_->on_slot_config(rpu, cfg);
        });
        r->set_slot_request_handler([this](uint8_t requester, uint8_t dst) {
            lb_->request_slot_routed(requester, dst);
        });
        r->set_broadcast_sender([this](uint8_t rpu, uint32_t off, uint32_t val) {
            return broadcast_->try_send(rpu, off, val);
        });
        broadcast_->set_deliver(
            i, [r](uint32_t off, uint32_t val) { r->broadcast_deliver(off, val); });

        // System-level boundary ports: which component drives which net is
        // only known here, at wiring time.
        std::string rn = r->name();
        kernel_.declare_port({rn, "broadcast.tx" + std::to_string(i),
                              sim::PortRecord::kWrite, 64, bc.tx_fifo_depth});
        kernel_.declare_port({"broadcast", rn + ".bcast_in", sim::PortRecord::kWrite, 64, 1});
        kernel_.declare_port({"broadcast", rn + ".bcast_notify", sim::PortRecord::kWrite, 64,
                              config_.rpu_template.bcast_notify_depth});
        kernel_.declare_port(
            {rn, "lb.ctrl.r" + std::to_string(i), sim::PortRecord::kWrite, 64, 1});
        kernel_.declare_port(
            {rn, "lb.resp.r" + std::to_string(i), sim::PortRecord::kRead, 64, 1});
    }
    lb_->set_slot_response_handler(
        [this](uint8_t requester, uint8_t dst, std::optional<uint8_t> slot) {
            rpus_[requester]->slot_response(dst, slot);
        });

    for (unsigned port = 0; port < 2; ++port) {
        sinks_.push_back(std::make_unique<dist::TrafficSink>(
            kernel_, stats_, "sink.port" + std::to_string(port)));
        dist::TrafficSink* sink = sinks_.back().get();
        fabric_->set_mac_tx_sink(port,
                                 [sink](net::PacketPtr pkt) { sink->deliver(pkt); });
        kernel_.declare_port({"sink.port" + std::to_string(port),
                              "fabric.mac_tx.p" + std::to_string(port),
                              sim::PortRecord::kRead, 512, 0});
    }

    // Pre-cycle-0 gate: the static lint (and, when configured, the
    // shard-cut certifier) runs once, right before the first tick, so late
    // wiring (sources, accelerators) is already elaborated.
    if (config_.lint != LintMode::kOff || config_.certify_shards > 0) {
        kernel_.set_prestep_hook([this](sim::Kernel&) {
            if (config_.lint != LintMode::kOff) {
                auto violations = lint_check();
                if (!violations.empty()) {
                    std::string msg =
                        "netlist lint failed:\n" + lint::report(violations);
                    if (config_.lint == LintMode::kEnforce) sim::fatal(msg);
                    sim::warn(msg);
                }
            }
            if (config_.certify_shards > 0) {
                lint::ShardPlan plan = shard_plan(config_.certify_shards);
                if (!plan.sound) {
                    std::string msg = "shard-cut certification failed: " +
                                      plan.verdict;
                    if (config_.lint == LintMode::kEnforce) sim::fatal(msg);
                    sim::warn(msg);
                }
            }
        });
    }
}

System::~System() = default;

void
System::attach_accelerators(
    const std::function<std::unique_ptr<rpu::Accelerator>()>& factory) {
    for (auto& r : rpus_) r->attach_accelerator(factory());
}

dist::TrafficSource&
System::add_source(const dist::TrafficSource::Config& cfg, dist::TrafficSource::GenFn gen) {
    sources_.push_back(std::make_unique<dist::TrafficSource>(kernel_, stats_, cfg, *fabric_,
                                                             std::move(gen)));
    return *sources_.back();
}

uint64_t
System::add_packet_observer(PacketObserver fn) {
    if (!observer_hooks_installed_) {
        auto hook = [this](const char* stage, const net::Packet& pkt) {
            dispatch_packet_event(stage, pkt);
        };
        fabric_->set_trace(hook);
        for (auto& r : rpus_) r->set_trace(hook);
        observer_hooks_installed_ = true;
    }
    // Compact slots freed by remove_packet_observer (never during a
    // dispatch, so iteration in dispatch_packet_event stays valid).
    std::erase_if(observers_, [](const Observer& o) { return !o.fn; });
    uint64_t handle = next_observer_handle_++;
    observers_.push_back({handle, std::move(fn)});
    return handle;
}

void
System::remove_packet_observer(uint64_t handle) {
    // Null the slot instead of erasing so removal from inside a dispatch
    // does not invalidate the iteration.
    for (auto& o : observers_) {
        if (o.handle == handle) o.fn = nullptr;
    }
}

void
System::dispatch_packet_event(const char* stage, const net::Packet& pkt) {
    sim::Cycle now = kernel_.now();
    for (size_t i = 0; i < observers_.size(); ++i) {
        if (observers_[i].fn) observers_[i].fn(stage, pkt, now);
    }
}

std::vector<System::ResourceRow>
System::resource_report() const {
    std::vector<ResourceRow> rows;
    unsigned n = config_.rpu_count;

    sim::ResourceFootprint rpu_fp = rpus_.front()->base_resources();
    rows.push_back({"Single RPU", rpu_fp});
    rows.push_back({"Remaining (PR)", pr_region_capacity(n).saturating_sub(rpu_fp)});

    sim::ResourceFootprint lb_fp = lb_->resources();
    rows.push_back({"LB", lb_fp});
    rows.push_back({"Remaining", lb_region_capacity(n).saturating_sub(lb_fp)});

    sim::ResourceFootprint ic = fabric_->interconnect_resources();
    rows.push_back({"Single Interconnect", ic});

    sim::ResourceFootprint cmac{6397, 14849, 0, 18, 0};
    sim::ResourceFootprint pcie{41526, 63742, 110, 32, 0};
    rows.push_back({"CMAC", cmac});
    rows.push_back({"PCIe", pcie});

    sim::ResourceFootprint sw = fabric_->switching_resources();
    rows.push_back({"Switching", sw});

    sim::ResourceFootprint total =
        rpu_fp * n + lb_fp + ic * n + cmac + pcie + sw;
    rows.push_back({"Complete design", total});
    rows.push_back({"VU9P device", sim::kXcvu9p});
    return rows;
}

std::vector<lint::Violation>
System::lint_check() const {
    auto violations = lint::check_netlist(kernel_, lint::paper_width_table());

    // Resource-model consistency: the per-component rows of Tables 1-2 must
    // sum exactly into "Complete design", which must fit the VU9P, and the
    // replicated blocks must fit their pre-laid-out PR regions.
    unsigned n = config_.rpu_count;
    auto rows = resource_report();
    auto row = [&](const std::string& name) -> const sim::ResourceFootprint& {
        for (const auto& r : rows) {
            if (r.name == name) return r.fp;
        }
        sim::panic("lint_check: missing resource row " + name);
    };
    std::vector<lint::ResourceItem> children = {
        {"Single RPU", row("Single RPU"), n},
        {"LB", row("LB"), 1},
        {"Single Interconnect", row("Single Interconnect"), n},
        {"CMAC", row("CMAC"), 1},
        {"PCIe", row("PCIe"), 1},
        {"Switching", row("Switching"), 1},
    };
    auto append = [&](std::vector<lint::Violation> v) {
        violations.insert(violations.end(), std::make_move_iterator(v.begin()),
                          std::make_move_iterator(v.end()));
    };
    append(lint::check_resource_sum("Complete design", row("Complete design"), children));
    append(lint::check_resource_fit("Complete design", row("Complete design"),
                                    sim::kXcvu9p));
    append(lint::check_resource_fit("Single RPU (PR region)", row("Single RPU"),
                                    pr_region_capacity(n)));
    append(lint::check_resource_fit("LB (PR block)", row("LB"), lb_region_capacity(n)));
    return violations;
}

lint::ShardPlan
System::shard_plan(unsigned shards) const {
    return lint::certify_partition(kernel_, shards);
}

// --- time-decoupled execution (DESIGN.md §16) --------------------------------

void
System::set_decouple_shards(unsigned shards, unsigned workers) {
    decouple_request_ = shards;
    decouple_workers_ = workers;
    decouple_failed_ = false;
    if (shards <= 1) {
        // The null plan: one shard IS the barrier kernel, bit-identical to
        // a serial run by definition.
        kernel_.clear_shard_spec();
        detach_cut_channels();
        decouple_installed_ = false;
        decouple_plan_.reset();
    }
}

void
System::detach_cut_channels() {
    if (fabric_) {
        for (unsigned p = 0; p < 2; ++p) fabric_->set_cut_rx_channel(p, nullptr);
    }
    for (auto& s : sources_) s->set_cut_channel(nullptr, 0);
    cut_channels_.clear();
}

std::vector<sim::CutChannelStats>
System::decoupled_channel_report() const {
    std::vector<sim::CutChannelStats> out;
    out.reserve(cut_channels_.size());
    for (const auto& ch : cut_channels_) out.push_back(ch->stats());
    return out;
}

void
System::try_install_decoupled() {
    // Decoupling targets the tester-boundary cuts; until traffic sources
    // exist the certified plan has a single executable shard (certifying
    // during boot would see only the DUT atom), so the request stays
    // pending across boot-time runs.
    if (sources_.empty()) return;

    auto reject = [this](const std::string& why) {
        sim::warn("decouple: falling back to the barrier kernel: " + why);
        detach_cut_channels();
        kernel_.clear_shard_spec();
        decouple_failed_ = true;
    };
    if (config_.hw_reassembler)
        return reject(
            "the hardware reassembler holds cross-packet state on the mac_rx "
            "path (the cut-channel mirror requires a pass-through MAC)");
    if (observer_hooks_installed_)
        return reject("packet observers require the single-clock barrier kernel");
    if (kernel_.telemetry() != nullptr)
        return reject("a telemetry sink is attached");

    auto plan =
        std::make_unique<lint::ShardPlan>(shard_plan(decouple_request_));
    if (!plan->sound) return reject("plan unsound: " + plan->verdict);

    std::unordered_map<std::string, sim::Component*> by_name;
    for (sim::Component* c : kernel_.components()) by_name[c->name()] = c;
    auto find = [&](const std::string& n) -> sim::Component* {
        auto it = by_name.find(n);
        return it == by_name.end() ? nullptr : it->second;
    };

    // Map plan shards (which also list netlist pseudo components — the
    // LB's port-declaring name, the passive sinks) onto executable shards
    // of kernel components. Plan shards holding only pseudo components
    // are not executable; cuts touching them need no synchronization (a
    // pseudo endpoint is a passive call on the adjacent real component's
    // thread, e.g. a mac_tx sink delivery at fabric-local time).
    sim::ShardSpec spec;
    std::vector<int> exec_of(plan->shards.size(), -1);
    for (unsigned ps = 0; ps < plan->shards.size(); ++ps) {
        std::vector<sim::Component*> comps;
        for (const std::string& n : plan->shards[ps]) {
            if (sim::Component* c = find(n)) comps.push_back(c);
        }
        if (comps.empty()) continue;
        exec_of[ps] = int(spec.shards.size());
        spec.shards.push_back({});
        spec.shards.back().components = std::move(comps);
    }
    if (spec.shards.size() < 2)
        return reject("plan yields fewer than 2 executable shards");

    int fabric_exec = -1;
    for (unsigned s = 0; s < spec.shards.size(); ++s) {
        for (sim::Component* c : spec.shards[s].components) {
            if (c == fabric_.get()) fabric_exec = int(s);
        }
    }
    if (fabric_exec < 0) return reject("fabric not in any executable shard");

    // Translate the certified cuts into channels and waits. Only the
    // tester-boundary mac_rx cuts carry real->real traffic today; any
    // other real->real cut has no channel adapter yet.
    detach_cut_channels();
    std::unordered_map<std::string, sim::CutChannel<net::PacketPtr>*> by_net;
    auto add_end_wait = [&](int shard, unsigned dep) {
        for (unsigned u : spec.shards[shard].end_waits) {
            if (u == dep) return;
        }
        spec.shards[shard].end_waits.push_back(dep);
    };
    bool any_channel = false;
    // (channel, producer exec shard, consumer exec shard) — the kernel's
    // per-shard done counters are bound after set_shard_spec succeeds.
    std::vector<std::tuple<sim::CutChannelBase*, unsigned, unsigned>> binds;
    for (const lint::ShardCut& cut : plan->cuts) {
        sim::Component* from = find(cut.edge.from);
        sim::Component* to = find(cut.edge.to);
        if (!from || !to) continue;  // pseudo endpoint: no sync needed
        const bool mac_rx_net =
            cut.edge.net.rfind("fabric.mac_rx.p", 0) == 0 &&
            cut.edge.net.size() == sizeof("fabric.mac_rx.p") &&
            (cut.edge.net.back() == '0' || cut.edge.net.back() == '1');
        if (!mac_rx_net)
            return reject("no decoupled channel adapter for cut net '" +
                          cut.edge.net + "'");
        const unsigned port = unsigned(cut.edge.net.back() - '0');
        const int from_exec = exec_of[cut.from_shard];
        const int to_exec = exec_of[cut.to_shard];
        if (from_exec < 0 || to_exec < 0)
            return reject("mac_rx cut touches a non-executable shard");
        if (cut.edge.kind == lint::LatencyEdge::kData) {
            // Producer (TrafficSource) -> consumer (Fabric): replace the
            // direct call with the latency-tagged channel; the consumer's
            // end-of-cycle hook integrates same-cycle pushes, so it waits
            // for the producer to finish each cycle before closing it.
            if (to != fabric_.get())
                return reject("unexpected mac_rx data-cut consumer '" +
                              cut.edge.to + "'");
            dist::TrafficSource* src = nullptr;
            for (auto& s : sources_) {
                if (s->name() == cut.edge.from) src = s.get();
            }
            if (!src)
                return reject("mac_rx data-cut producer '" + cut.edge.from +
                              "' is not a traffic source");
            auto ch = std::make_unique<sim::CutChannel<net::PacketPtr>>(
                cut.edge.net, cut.edge.latency);
            by_net[cut.edge.net] = ch.get();
            src->set_cut_channel(ch.get(), fabric_->config().mac_rx_fifo_bytes);
            fabric_->set_cut_rx_channel(port, ch.get());
            spec.shards[to_exec].in_channels.push_back(ch.get());
            binds.emplace_back(ch.get(), unsigned(from_exec), unsigned(to_exec));
            cut_channels_.push_back(std::move(ch));
            add_end_wait(to_exec, unsigned(from_exec));
            any_channel = true;
        } else {
            // Registered credit return (Fabric -> TrafficSource, latency
            // >= 1). No conservative wait: the source's free-run gate
            // (TrafficSource::decoupled_runnable) bounds occupancy with the
            // channel's snapshot + its own undrained pushes, falling back
            // to the exact lockstep snapshot only when the bound nears the
            // FIFO capacity — that admission dominance is exactly what the
            // registered-credit certificate licenses.
        }
    }
    if (!any_channel) return reject("no mac_rx data cut in the plan");

    spec.primary = unsigned(fabric_exec);
    unsigned workers = decouple_workers_;
    if (workers == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers = hw > 8 ? 4 : (hw >= 4 ? 2 : 1);
    }
    spec.shards[fabric_exec].tick_workers = workers;
    spec.shards[fabric_exec].begin_hook = [this] {
        fabric_->decoupled_begin_run();
    };
    spec.shards[fabric_exec].end_hook = [this](sim::Cycle t) {
        fabric_->decoupled_end_cycle(t);
    };
    spec.exec = decouple_exec_;

    std::string err = kernel_.set_shard_spec(std::move(spec));
    if (!err.empty()) return reject(err);

    // Bind the kernel's per-shard progress counters into each channel so
    // both endpoints can tell lockstep (exact credit) from free-run.
    for (auto& [ch, prod, cons] : binds) {
        ch->bind_producer_done(kernel_.shard_done_ptr(prod));
        ch->bind_consumer_done(kernel_.shard_done_ptr(cons));
    }

    // The race detector needs a single attributable actor per cycle; the
    // certified plan plus the dynamic channel-latency cross-check stand in
    // for it while decoupled.
    kernel_.set_race_check(false);
    decouple_installed_ = true;
    decouple_plan_ = std::move(plan);
    sim::inform("decouple: installed " +
                std::to_string(kernel_.components().size()) +
                " components over " + std::to_string(decouple_request_) +
                "-way certified plan (" + std::to_string(cut_channels_.size()) +
                " cut channels, " + std::to_string(workers) +
                " DUT tick workers)");
}

namespace {

void
fnv_mix(uint64_t& h, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
fnv_mix(uint64_t& h, const std::string& s) {
    for (char c : s) {
        h ^= uint8_t(c);
        h *= 0x100000001b3ull;
    }
    fnv_mix(h, s.size());
}

}  // namespace

uint64_t
System::state_fingerprint() const {
    uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    // Stats maps are ordered, so iteration itself is deterministic; the
    // per-sampler XOR absorbs any same-cycle sample reordering.
    for (const auto& [name, c] : stats_.counters()) {
        fnv_mix(h, name);
        fnv_mix(h, c.get());
    }
    for (const auto& [name, s] : stats_.samplers()) {
        fnv_mix(h, name);
        fnv_mix(h, uint64_t(s.count()));
        uint64_t bag = 0;
        for (double v : s.samples()) {
            uint64_t bits;
            std::memcpy(&bits, &v, sizeof bits);
            bag ^= bits;
        }
        fnv_mix(h, bag);
    }
    for (const auto& sink : sinks_) {
        fnv_mix(h, sink->frames());
        fnv_mix(h, sink->bytes());
    }
    for (const auto& r : rpus_) {
        fnv_mix(h, r->debug_low());
        fnv_mix(h, r->debug_high());
        fnv_mix(h, r->occupancy());
    }
    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        fnv_mix(h, lb_->free_slots(uint8_t(r)));
    }
    return h;
}

}  // namespace rosebud

#include "dist/fabric.h"

#include "sim/log.h"

namespace rosebud::dist {

namespace {

uint32_t
div_ceil(uint32_t a, uint32_t b) {
    return (a + b - 1) / b;
}

}  // namespace

Fabric::Fabric(sim::Kernel& kernel, sim::Stats& stats, const FabricConfig& config,
               lb::LoadBalancer& lb, std::vector<rpu::Rpu*> rpus)
    : sim::Component(kernel, "fabric"),
      config_(config),
      stats_(stats),
      lb_(lb),
      rpus_(std::move(rpus)),
      rpus_per_cluster_((config.rpu_count + config.clusters - 1) / config.clusters),
      voqs_(config.rpu_count * kSourceCount),
      rpu_rr_(config.rpu_count, 0),
      voq_pkts_rpu_(config.rpu_count, 0),
      egress_queues_(config.rpu_count),
      egress_staged_(config.rpu_count),
      egress_committed_(config.rpu_count, 0) {
    if (rpus_.size() != config.rpu_count) sim::fatal("Fabric: rpu vector size mismatch");
    for (unsigned p = 0; p < 2; ++p) {
        std::string pn = "port" + std::to_string(p);
        ctr_rx_frames_[p] = &stats.counter(pn + ".rx_frames");
        ctr_rx_bytes_[p] = &stats.counter(pn + ".rx_bytes");
        ctr_rx_drops_[p] = &stats.counter(pn + ".rx_fifo_drops");
        ctr_tx_frames_[p] = &stats.counter(pn + ".tx_frames");
        ctr_tx_bytes_[p] = &stats.counter(pn + ".tx_bytes");
    }
    ctr_voq_stall_ = &stats.counter("fabric.voq_stall");
    ctr_host_tx_frames_ = &stats.counter("host.tx_frames");
    ctr_host_rx_frames_ = &stats.counter("host.rx_frames");
    ctr_host_rx_bytes_ = &stats.counter("host.rx_bytes");
    ctr_host_tag_stall_ = &stats.counter("host.tag_stall");
    ctr_loopback_frames_ = &stats.counter("loopback.frames");
    ctr_loopback_bytes_ = &stats.counter("loopback.bytes");
    declare_netlist(kernel);
    // Occupancy probes on the abstract (non-sim::Fifo) queues, so the
    // health layer's backlog census, the metrics gauges and the telemetry
    // sink can read committed occupancy on demand.
    for (unsigned s = 0; s < kSourceCount; ++s) {
        kernel.register_occupancy_probe(source_net_[s], 0, this,
                                        [this, s] { return sources_[s].queue.size(); });
    }
    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        for (unsigned s = 0; s < kSourceCount; ++s) {
            const unsigned q = r * kSourceCount + s;
            kernel.register_occupancy_probe(voq_net_[q], config_.voq_depth, this,
                                            [this, q] { return voqs_[q].size(); });
        }
        kernel.register_occupancy_probe(
            egress_net_[r], config_.egress_queue_depth, this,
            [this, r] { return egress_queues_[r].size(); });
    }
    for (unsigned p = 0; p < 2; ++p) {
        kernel.register_occupancy_probe(
            mac_tx_net_[p], 0, this, [this, p] { return mac_tx_[p].fifo.size(); });
    }
    kernel.register_occupancy_probe(
        host_out_net_, config_.pcie_tags, this,
        [this] { return size_t(pcie_tags_in_use_); });
}

void
Fabric::declare_netlist(sim::Kernel& kernel) {
    using sim::NetRecord;
    using sim::PortRecord;
    const unsigned kSw = 512;  // stage-1 switch datapath (64 B/cycle)

    // MAC-side FIFOs: depth in 512-bit words. The wire side is external.
    // mac_rx admission works on a committed+staged snapshot (see
    // IngressSource: admission cannot observe same-cycle pops), so its
    // credit return is registered — one cycle of provable lookahead on the
    // source->fabric feedback edge. mac_tx drains self-paced onto the line
    // (the sink never returns credit), so no feedback edge exists at all.
    for (unsigned p = 0; p < 2; ++p) {
        std::string rx = "fabric.mac_rx.p" + std::to_string(p);
        source_net_[p] = kernel.declare_net(
            {rx, NetRecord::kFifo, kSw, config_.mac_rx_fifo_bytes / 64,
             sim::kNetExternalSource, NetRecord::kCreditRegistered});
        kernel.declare_port({name(), rx, PortRecord::kRead, kSw, 0});
        std::string tx = "fabric.mac_tx.p" + std::to_string(p);
        mac_tx_net_[p] = kernel.declare_net(
            {tx, NetRecord::kFifo, kSw, config_.mac_tx_fifo_bytes / 64,
             sim::kNetExternalSink, NetRecord::kCreditNone});
        kernel.declare_port({name(), tx, PortRecord::kWrite, kSw,
                             config_.mac_tx_fifo_bytes / 64});
    }

    // Host (PCIe virtual Ethernet) and loopback share the ingress plane.
    // host_q shares the registered ingress admission; host_out is drained
    // by the PCIe DMA engine inside our own tick (tag credit is fabric-
    // internal accounting, not a reader-side return).
    source_net_[kSrcHost] = kernel.declare_net(
        {"fabric.host_q", NetRecord::kFifo, kSw, config_.host_queue_packets,
         sim::kNetExternalSource, NetRecord::kCreditRegistered});
    kernel.declare_port({name(), "fabric.host_q", PortRecord::kRead, kSw, 0});
    host_out_net_ = kernel.declare_net({"fabric.host_out", NetRecord::kFifo, kSw,
                                        config_.pcie_tags, sim::kNetExternalSink,
                                        NetRecord::kCreditNone});
    kernel.declare_port(
        {name(), "fabric.host_out", PortRecord::kWrite, kSw, config_.pcie_tags});
    source_net_[kSrcLoopback] = kernel.declare_net(
        {"fabric.loopback_q", NetRecord::kFifo, kSw, config_.loopback_queue_packets, 0});
    kernel.declare_port({name(), "fabric.loopback_q", PortRecord::kWrite, kSw,
                         config_.loopback_queue_packets});
    kernel.declare_port({name(), "fabric.loopback_q", PortRecord::kRead, kSw, 0});

    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        std::string rn = std::to_string(r);
        // Per-(RPU, source) virtual output queues inside the RX switches.
        for (unsigned s = 0; s < kSourceCount; ++s) {
            std::string v = "fabric.voq.r" + rn + ".s" + std::to_string(s);
            voq_net_.push_back(
                kernel.declare_net({v, NetRecord::kFifo, kSw, config_.voq_depth, 0}));
            kernel.declare_port({name(), v, PortRecord::kWrite, kSw, config_.voq_depth});
            kernel.declare_port({name(), v, PortRecord::kRead, kSw, 0});
        }
        // Per-RPU egress queues: the RPU's TX engine writes, we arbitrate.
        // Admission checks committed+staged occupancy (never same-cycle
        // pops), so the RPU-facing credit return is registered.
        std::string e = "fabric.egress.r" + rn;
        egress_net_.push_back(kernel.declare_net({e, NetRecord::kFifo, 128,
                                                  config_.egress_queue_depth, 0,
                                                  NetRecord::kCreditRegistered}));
        kernel.declare_port(
            {rpus_[r]->name(), e, PortRecord::kWrite, 128, config_.egress_queue_depth});
        kernel.declare_port({name(), e, PortRecord::kRead, 128, 0});
        // We drive the 128-bit per-RPU ingress link the Rpu declared.
        kernel.declare_port({name(), rpus_[r]->name() + ".link_in", PortRecord::kWrite, 0, 0});
    }

    // The LB assignment interface (declared by LoadBalancer::attach).
    kernel.declare_port({name(), "lb.assign", PortRecord::kWrite, 64, 1});
}

bool
Fabric::mac_rx(unsigned port, net::PacketPtr pkt) {
    if (port > 1) sim::fatal("mac_rx: bad port");
    bool in_tick = kernel().in_tick();
    // Host-phase arrivals mutate sleeper-visible queues: settle the skipped
    // window first. (Tick-phase arrivals are staged; wake() accounts them.)
    if (!in_tick) flush_skipped();
    if (kernel().commit_compat()) {
        // Seed parity: the pre-fast-path code looked these counters up by a
        // freshly built string key on every frame (same at the other
        // per-packet counter sites below and in Rpu/TrafficSink).
        std::string pn = "port" + std::to_string(port);
        stats_.counter(pn + ".rx_frames").add();
        stats_.counter(pn + ".rx_bytes").add(pkt->size());
    } else {
        ctr_rx_frames_[port]->add();
        ctr_rx_bytes_[port]->add(pkt->size());
    }
    pkt->in_iface = net::Iface(port);

    // The hardware reassembler (when configured into the LB) sits before
    // the MAC FIFO logically: it may hold the packet or release several.
    std::vector<net::PacketPtr> released = lb_.reassemble(std::move(pkt));

    IngressSource& src = sources_[port];
    bool all_ok = true;
    bool admitted = false;
    for (auto& p : released) {
        uint64_t occupied = in_tick ? src.admit_bytes + src.staged_bytes : src.queue_bytes;
        if (occupied + p->size() > config_.mac_rx_fifo_bytes) {
            ctr_rx_drops_[port]->add();
            trace("mac_rx_fifo_drop", *p);
            tel(source_net_[port], sim::TelemetrySink::NetEvent::kPushBlocked);
            all_ok = false;
            continue;
        }
        trace("mac_rx", *p);
        tel(source_net_[port], sim::TelemetrySink::NetEvent::kPushOk);
        admitted = true;
        if (in_tick) {
            src.staged_bytes += p->size();
            src.staged.push_back(std::move(p));
        } else {
            src.queue_bytes += p->size();
            src.queue.push_back(std::move(p));
            src.admit_bytes = src.queue_bytes;
            src.admit_count = src.queue.size();
        }
    }
    if (admitted) {
        commit_dirty_ = true;
        wake();
    }
    return all_ok;
}

bool
Fabric::host_inject(net::PacketPtr pkt) {
    IngressSource& src = sources_[kSrcHost];
    bool in_tick = kernel().in_tick();
    if (!in_tick) flush_skipped();
    size_t occupied = in_tick ? src.admit_count + src.staged.size() : src.queue.size();
    if (occupied >= config_.host_queue_packets) {
        tel(source_net_[kSrcHost], sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    tel(source_net_[kSrcHost], sim::TelemetrySink::NetEvent::kPushOk);
    pkt->in_iface = net::Iface::kHost;
    if (in_tick) {
        src.staged_bytes += pkt->size();
        src.staged.push_back(std::move(pkt));
    } else {
        src.queue_bytes += pkt->size();
        src.queue.push_back(std::move(pkt));
        src.admit_bytes = src.queue_bytes;
        src.admit_count = src.queue.size();
    }
    ctr_host_tx_frames_->add();
    commit_dirty_ = true;
    wake();
    return true;
}

bool
Fabric::rpu_egress(uint8_t rpu, net::PacketPtr pkt) {
    const sim::NetId enet = egress_net_[rpu];
    if (!kernel().in_tick()) flush_skipped();
    if (kernel().in_tick()) {
        if (egress_committed_[rpu] + egress_staged_[rpu].size() >= config_.egress_queue_depth) {
            tel(enet, sim::TelemetrySink::NetEvent::kPushBlocked);
            return false;
        }
        trace("rpu_egress", *pkt);
        tel(enet, sim::TelemetrySink::NetEvent::kPushOk);
        egress_staged_[rpu].push_back({std::move(pkt), now() + 1});
        commit_dirty_ = true;
        wake();
        return true;
    }
    auto& q = egress_queues_[rpu];
    if (q.size() >= config_.egress_queue_depth) {
        tel(enet, sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    tel(enet, sim::TelemetrySink::NetEvent::kPushOk);
    trace("rpu_egress", *pkt);
    q.push_back({std::move(pkt), now() + 1});
    ++egress_pkts_;
    unsigned dd = unsigned(q.back().pkt->out_iface);
    if (dd < kSourceCount) ++egress_pkts_dest_[dd];
    egress_committed_[rpu] = q.size();
    commit_dirty_ = true;
    wake();
    return true;
}

bool
Fabric::quiescent() const {
    for (const IngressSource& src : sources_) {
        if (!src.queue.empty() || !src.staged.empty() || src.active ||
            src.stalled || src.issue_cd != 0) {
            return false;
        }
    }
    for (const auto& q : voqs_)
        if (!q.empty()) return false;
    for (const auto& q : egress_queues_)
        if (!q.empty()) return false;
    for (const auto& v : egress_staged_)
        if (!v.empty()) return false;
    for (const EgressDest& d : egress_)
        if (d.active || d.done) return false;
    for (const MacTx& m : mac_tx_)
        if (m.active || !m.fifo.empty()) return false;
    if (!host_out_.empty() || pcie_tags_in_use_ != 0 || loopback_.active)
        return false;
    // The PCIe byte credit is the only state that still evolves on an idle
    // tick; std::min clamps it to exactly 16 KiB, after which every tick
    // is the identity and sleeping is exact.
    return pcie_credit_ >= 16.0 * 1024;
}

void
Fabric::commit() {
    // Every path that stages a packet or mutates a committed queue (pop,
    // push, loopback re-entry) raises commit_dirty_; on untouched cycles
    // both integration loops below are identity refreshes and are skipped.
    if (!commit_dirty_ && !kernel().commit_compat()) return;
    commit_dirty_ = false;
    for (unsigned s = 0; s < kSourceCount; ++s) {
        IngressSource& src = sources_[s];
        if (!src.staged.empty()) {
            for (auto& p : src.staged) {
                src.queue_bytes += p->size();
                src.queue.push_back(std::move(p));
            }
            src.staged.clear();
            src.staged_bytes = 0;
        }
        src.admit_bytes = src.queue_bytes;
        src.admit_count = src.queue.size();
    }
    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        if (!egress_staged_[r].empty()) {
            egress_pkts_ += egress_staged_[r].size();
            for (auto& tp : egress_staged_[r]) {
                unsigned dd = unsigned(tp.pkt->out_iface);
                if (dd < kSourceCount) ++egress_pkts_dest_[dd];
                egress_queues_[r].push_back(std::move(tp));
            }
            egress_staged_[r].clear();
        }
        egress_committed_[r] = egress_queues_[r].size();
    }
}

void
Fabric::set_mac_tx_sink(unsigned port, SinkFn fn) {
    mac_tx_[port].sink = std::move(fn);
}

void
Fabric::set_host_sink(SinkFn fn) {
    host_sink_ = std::move(fn);
}

void
Fabric::tick() {
    const bool compat = kernel().commit_compat();
    for (unsigned s = 0; s < kSourceCount; ++s) {
        const IngressSource& src = sources_[s];
        if (!compat && src.issue_cd == 0 && !src.active && !src.stalled &&
            src.queue.empty()) {
            continue;
        }
        tick_ingress_source(s);
    }
    tick_rpu_links();
    tick_egress();
    tick_loopback();
    tick_mac_tx();

    // Host-bound packets: PCIe DMA with bounded bandwidth (byte credit
    // accrues at the link rate, saturating at 16 KiB) and a fixed latency
    // per transfer.
    if (pcie_credit_ < 16.0 * 1024) {
        pcie_credit_ = std::min(
            pcie_credit_ + config_.pcie_gbps * 1e9 / 8.0 / sim::kClockHz, 16.0 * 1024);
    }
    while (!host_out_.empty() && host_out_.front().ready <= now() &&
           pcie_credit_ >= double(host_out_.front().pkt->size())) {
        pcie_credit_ -= double(host_out_.front().pkt->size());
        --pcie_tags_in_use_;
        tel(host_out_net_, sim::TelemetrySink::NetEvent::kOccupancy);
        trace("host_deliver", *host_out_.front().pkt);
        if (host_sink_) host_sink_(host_out_.front().pkt);
        ctr_host_rx_frames_->add();
        ctr_host_rx_bytes_->add(host_out_.front().pkt->size());
        host_out_.pop_front();
    }
}

void
Fabric::tick_ingress_source(unsigned s) {
    IngressSource& src = sources_[s];

    if (src.issue_cd > 0) --src.issue_cd;

    // Retry a cut-through push that found its VOQ full.
    if (src.stalled) {
        auto& q = voq(src.stalled->dest_rpu, s);
        if (q.size() < config_.voq_depth) {
            tel(voq_net(src.stalled->dest_rpu, s), sim::TelemetrySink::NetEvent::kPushOk);
            q.push_back({src.stalled, now() + config_.ingress_pipe_cycles});
            ++voq_pkts_;
            ++voq_pkts_rpu_[src.stalled->dest_rpu];
            src.stalled.reset();
        } else {
            ctr_voq_stall_->add();
            tel(voq_net(src.stalled->dest_rpu, s),
                sim::TelemetrySink::NetEvent::kPushBlocked);
        }
    }

    // Advance the active stage-1 transfer (bandwidth accounting only: the
    // switch is cut-through, the packet was pushed downstream at start).
    if (src.active) {
        if (src.cycles_left > 0) --src.cycles_left;
        if (src.cycles_left > 0) return;
        src.active.reset();
    }

    if (src.issue_cd > 0 || src.stalled || src.queue.empty()) return;

    net::PacketPtr head = src.queue.front();
    // Loopback packets carry their destination already (the sending RPU
    // asked the LB for a remote slot); everything else goes to the LB.
    if (s != kSrcLoopback) {
        if (!lb_.try_assign(head)) return;  // wait: no eligible slot
        trace("lb_assign", *head);
    }
    src.queue.pop_front();
    src.queue_bytes -= head->size();
    commit_dirty_ = true;
    tel(source_net_[s], sim::TelemetrySink::NetEvent::kPop);
    src.active = head;
    uint32_t bytes = head->size() + (head->hash_prepended ? 4 : 0);
    src.cycles_left = div_ceil(bytes, config_.stage1_bytes_per_cycle);
    src.issue_cd = config_.issue_interval_cycles;

    // Cut-through: hand the packet to the cluster VOQ now; it becomes
    // visible to the per-RPU link after the fixed distribution pipe.
    auto& q = voq(head->dest_rpu, s);
    if (q.size() < config_.voq_depth) {
        tel(voq_net(head->dest_rpu, s), sim::TelemetrySink::NetEvent::kPushOk);
        q.push_back({head, now() + config_.ingress_pipe_cycles});
        ++voq_pkts_;
        ++voq_pkts_rpu_[head->dest_rpu];
    } else {
        tel(voq_net(head->dest_rpu, s), sim::TelemetrySink::NetEvent::kPushBlocked);
        src.stalled = head;
    }
}

void
Fabric::tick_rpu_links() {
    const bool compat = kernel().commit_compat();
    if (voq_pkts_ == 0 && !compat) return;
    for (unsigned r = 0; r < config_.rpu_count; ++r) {
        if (voq_pkts_rpu_[r] == 0 && !compat) continue;
        rpu::Rpu* rpu = rpus_[r];
        if (!rpu->rx_ready()) continue;
        for (unsigned i = 0; i < kSourceCount; ++i) {
            unsigned s = (rpu_rr_[r] + i) % kSourceCount;
            auto& q = voq(uint8_t(r), s);
            if (q.empty() || q.front().ready > now()) continue;
            trace("rpu_link_dispatch", *q.front().pkt);
            tel(voq_net(uint8_t(r), s), sim::TelemetrySink::NetEvent::kPop);
            tel(rpu->link_in_net(), sim::TelemetrySink::NetEvent::kPushOk);
            rpu->begin_rx(q.front().pkt);
            q.pop_front();
            --voq_pkts_;
            --voq_pkts_rpu_[r];
            rpu_rr_[r] = (s + 1) % kSourceCount;
            break;
        }
    }
}

void
Fabric::tick_egress() {
    const bool compat = kernel().commit_compat();
    if (egress_pkts_ == 0 && !compat) {
        bool busy = false;
        for (const EgressDest& d : egress_)
            if (d.active || d.done) { busy = true; break; }
        if (!busy) return;
    }
    for (unsigned d = 0; d < kSourceCount; ++d) {
        EgressDest& dest = egress_[d];
        // Nothing queued for this destination and its serializer is idle:
        // the per-RPU scan below cannot pick anything, skip it.
        if (!compat && !dest.active && !dest.done && egress_pkts_dest_[d] == 0)
            continue;

        // Retry a cut-through handoff that found no downstream space.
        if (dest.done && try_egress_handoff(d, dest.done)) dest.done.reset();

        // Advance the active egress serialization (bandwidth accounting;
        // the switch is cut-through, the handoff happened at pick time).
        if (dest.active) {
            if (dest.cycles_left > 0) --dest.cycles_left;
            if (dest.cycles_left > 0) continue;
            dest.active.reset();
        }
        if (dest.done) continue;

        // Pick the next RPU egress queue with a packet for this destination.
        for (unsigned i = 0; i < config_.rpu_count; ++i) {
            unsigned r = (dest.rr + i) % config_.rpu_count;
            auto& q = egress_queues_[r];
            if (q.empty() || q.front().ready > now()) continue;
            if (unsigned(q.front().pkt->out_iface) != d) continue;
            dest.active = q.front().pkt;
            dest.cycles_left = div_ceil(dest.active->size(), config_.stage1_bytes_per_cycle);
            q.pop_front();
            --egress_pkts_;
            --egress_pkts_dest_[d];
            commit_dirty_ = true;
            tel(egress_net_[r], sim::TelemetrySink::NetEvent::kPop);
            dest.rr = (r + 1) % config_.rpu_count;
            if (!try_egress_handoff(d, dest.active)) dest.done = dest.active;
            break;
        }
    }
}

bool
Fabric::try_egress_handoff(unsigned d, const net::PacketPtr& p) {
    if (d <= 1) {
        MacTx& mac = mac_tx_[d];
        if (mac.fifo_bytes + p->size() > config_.mac_tx_fifo_bytes) {
            tel(mac_tx_net_[d], sim::TelemetrySink::NetEvent::kPushBlocked);
            return false;
        }
        tel(mac_tx_net_[d], sim::TelemetrySink::NetEvent::kPushOk);
        mac.fifo_bytes += p->size();
        mac.fifo.push_back({p, now() + config_.egress_pipe_cycles});
        return true;
    }
    if (d == kSrcHost) {
        // DMA-tag admission: each in-flight host transfer holds a tag.
        if (pcie_tags_in_use_ >= config_.pcie_tags) {
            ctr_host_tag_stall_->add();
            tel(host_out_net_, sim::TelemetrySink::NetEvent::kPushBlocked);
            return false;
        }
        tel(host_out_net_, sim::TelemetrySink::NetEvent::kPushOk);
        ++pcie_tags_in_use_;
        host_out_.push_back({p, now() + config_.pcie_latency_cycles});
        return true;
    }
    // Loopback: the single 100G channel with a per-packet routing header.
    IngressSource& lp = sources_[kSrcLoopback];
    if (loopback_.active || lp.queue.size() >= config_.loopback_queue_packets) {
        tel(source_net_[kSrcLoopback], sim::TelemetrySink::NetEvent::kPushBlocked);
        return false;
    }
    tel(source_net_[kSrcLoopback], sim::TelemetrySink::NetEvent::kPushOk);
    loopback_.active = p;
    uint32_t wire = p->size() + config_.loopback_header_bytes;
    uint32_t need = wire > loopback_.line_credit ? wire - loopback_.line_credit : 0;
    loopback_.cycles_left = std::max(1u, div_ceil(need, config_.line_bytes_per_cycle));
    loopback_.line_credit =
        loopback_.cycles_left * config_.line_bytes_per_cycle + loopback_.line_credit - wire;
    if (loopback_.line_credit > config_.line_bytes_per_cycle) {
        loopback_.line_credit = config_.line_bytes_per_cycle;
    }
    return true;
}

void
Fabric::tick_loopback() {
    if (!loopback_.active) return;
    if (loopback_.cycles_left > 0) --loopback_.cycles_left;
    if (loopback_.cycles_left == 0) {
        IngressSource& lp = sources_[kSrcLoopback];
        lp.queue_bytes += loopback_.active->size();
        lp.queue.push_back(loopback_.active);
        tel(source_net_[kSrcLoopback], sim::TelemetrySink::NetEvent::kOccupancy);
        commit_dirty_ = true;
        trace("loopback_reenter", *loopback_.active);
        ctr_loopback_frames_->add();
        ctr_loopback_bytes_->add(loopback_.active->size());
        loopback_.active.reset();
    }
}

void
Fabric::tick_mac_tx() {
    const bool compat = kernel().commit_compat();
    for (unsigned port = 0; port < 2; ++port) {
        MacTx& mac = mac_tx_[port];
        if (!compat && !mac.active && mac.fifo.empty()) continue;
        if (mac.active) {
            if (mac.cycles_left > 0) --mac.cycles_left;
            if (mac.cycles_left > 0) continue;
            if (compat) {
                std::string pn = "port" + std::to_string(port);
                stats_.counter(pn + ".tx_frames").add();
                stats_.counter(pn + ".tx_bytes").add(mac.active->size());
            } else {
                ctr_tx_frames_[port]->add();
                ctr_tx_bytes_[port]->add(mac.active->size());
            }
            trace("mac_tx", *mac.active);
            if (mac.sink) mac.sink(mac.active);
            mac.active.reset();
            // Fall through: the line is back-to-back at full rate.
        }
        if (!mac.fifo.empty() && mac.fifo.front().ready <= now()) {
            mac.active = mac.fifo.front().pkt;
            mac.fifo_bytes -= mac.active->size();
            mac.fifo.pop_front();
            tel(mac_tx_net_[port], sim::TelemetrySink::NetEvent::kPop);
            // Bit-serial line: carry the fractional-cycle remainder so the
            // long-run rate is exactly line_bytes_per_cycle.
            uint32_t wire = mac.active->wire_size();
            uint32_t need = wire > mac.line_credit ? wire - mac.line_credit : 0;
            mac.cycles_left = std::max(1u, div_ceil(need, config_.line_bytes_per_cycle));
            mac.line_credit =
                mac.cycles_left * config_.line_bytes_per_cycle + mac.line_credit - wire;
            if (mac.line_credit > config_.line_bytes_per_cycle) {
                mac.line_credit = config_.line_bytes_per_cycle;
            }
        }
    }
}

sim::ResourceFootprint
Fabric::switching_resources() const {
    // Calibrated to the "Switching" rows of Tables 1-2: both unidirectional
    // planes scale with RPU count on top of a fixed port-side stage.
    uint64_t n = config_.rpu_count;
    return {.luts = 10570 + 4729 * n,
            .regs = 14126 + 6845 * n,
            .bram = 24 + 3 * n / 2,
            .uram = 4 * n};
}

sim::ResourceFootprint
Fabric::interconnect_resources() const {
    // "Single Interconnect" row: mildly larger per instance in smaller
    // configurations (wider per-RPU arbitration share).
    uint64_t n = config_.rpu_count;
    return {.luts = 3135 - 21 * n, .regs = 3147 - 12 * n};
}

}  // namespace rosebud::dist

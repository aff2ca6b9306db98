#include <cstring>

#include "perfbench.h"

namespace perfbench {

using namespace rosebud;

void
TracedAccelerator::tick(rpu::AccelContext& ctx) {
    t_.call(t_.accel_tick, "accel.tick", [&] { inner_->tick(ctx); });
}

bool
TracedAccelerator::mmio_read(uint32_t offset, uint32_t& value, rpu::AccelContext& ctx) {
    return t_.call(t_.accel_mmio, "accel.mmio",
                   [&] { return inner_->mmio_read(offset, value, ctx); });
}

bool
TracedAccelerator::mmio_write(uint32_t offset, uint32_t value, rpu::AccelContext& ctx) {
    return t_.call(t_.accel_mmio, "accel.mmio",
                   [&] { return inner_->mmio_write(offset, value, ctx); });
}

void
TracedHealthProbe::on_cycle(uint64_t completed) {
    t_.call(t_.health, "obs.health", [&] { inner->on_cycle(completed); });
}

void
TracedTelemetrySink::net_event(const std::string& net, NetEvent ev) {
    t_.call(t_.telemetry, "obs.telemetry", [&] { inner->net_event(net, ev); });
}

void
TracedTelemetrySink::net_occupancy(const std::string& net, size_t occupancy,
                                   size_t capacity) {
    t_.call(t_.telemetry, "obs.telemetry",
            [&] { inner->net_occupancy(net, occupancy, capacity); });
}

void
TracedTelemetrySink::end_cycle(uint64_t completed) {
    t_.call(t_.telemetry, "obs.telemetry", [&] { inner->end_cycle(completed); });
}

Tracer::Tracer() : health_fwd_(*this), telemetry_fwd_(*this) {
    // Tick rate against the steady clock over 5 ms, and the cost of a read.
    base_ns_ = steady_ns();
    base_ticks_ = ticks();
    while (steady_ns() - base_ns_ < 5'000'000) {}
    ns_per_tick_ = double(steady_ns() - base_ns_) / double(ticks() - base_ticks_);
    std::vector<double> reads;
    for (int i = 0; i < 101; ++i) {
        uint64_t a = ticks();
        reads.push_back(double(ticks() - a));
    }
    read_ticks_ = uint64_t(quantile(reads, 0.5));
}

void
Tracer::close_sampled(CallTimer& t, const char* name, uint64_t t0) {
    uint64_t t1 = ticks();
    uint64_t d = t1 - t0 > read_ticks_ ? t1 - t0 - read_ticks_ : 0;
    ++t.timed;
    t.timed_ns += uint64_t(double(d) * ns_per_tick_);
    if (spans_.size() < kMaxSpans)
        spans_.push_back({name, to_ns(t0), to_ns(t1), parent_});
    else
        ++spans_dropped_;
}

uint32_t
Tracer::open(const char* name) {
    if (spans_.size() >= kMaxSpans) {
        ++spans_dropped_;
        return UINT32_MAX;
    }
    spans_.push_back({name, to_ns(ticks()), 0, parent_});
    parent_ = uint32_t(spans_.size() - 1);
    return parent_;
}

void
Tracer::close(uint32_t id) {
    if (id == UINT32_MAX) return;
    spans_[id].end_ns = to_ns(ticks());
    parent_ = spans_[id].parent;
}

dist::TrafficSource::GenFn
Tracer::wrap_gen(dist::TrafficSource::GenFn fn) {
    return [this, fn = std::move(fn)] { return call(gen, "net.gen", fn); };
}

dist::Fabric::SinkFn
Tracer::wrap_rx(dist::Fabric::SinkFn fn) {
    return [this, fn = std::move(fn)](net::PacketPtr p) {
        call(rx, "host.rx", [&] { fn(std::move(p)); });
    };
}

std::unique_ptr<rpu::Accelerator>
Tracer::wrap_accel(std::unique_ptr<rpu::Accelerator> a) {
    return std::make_unique<TracedAccelerator>(std::move(a), *this);
}

void
Tracer::wrap_obs(System& sys) {
    sim::Kernel& k = sys.kernel();
    if (k.health_probe() && k.health_probe() != &health_fwd_) {
        health_fwd_.inner = k.health_probe();
        k.set_health_probe(&health_fwd_);
    }
    if (k.telemetry() && k.telemetry() != &telemetry_fwd_) {
        telemetry_fwd_.inner = k.telemetry();
        k.set_telemetry(&telemetry_fwd_);
    }
}

void
Tracer::unwrap_obs(System& sys) {
    sim::Kernel& k = sys.kernel();
    if (k.health_probe() == &health_fwd_) k.set_health_probe(health_fwd_.inner);
    if (k.telemetry() == &telemetry_fwd_) k.set_telemetry(telemetry_fwd_.inner);
}

void
Tracer::observe_packets(System& sys) {
    marks_.clear();  // ids repeat in every repetition of a seed
    sys.add_packet_observer([this](const char* stage, const net::Packet& pkt, Cycle now) {
        call(observer, "trace.observer", [&] { on_packet(stage, pkt, now); });
    });
}

void
Tracer::on_packet(const char* stage, const net::Packet& pkt, Cycle now) {
    // One packet id in eight, chosen by a multiplicative hash so that every
    // stage of a traced packet is seen.
    if (((pkt.id * 0x9E3779B97F4A7C15ull) >> 61) != 0) return;
    auto span = [this](std::vector<double>& out, Cycle from, Cycle to) {
        if (recording_ && from != ~Cycle(0)) out.push_back(double(to - from));
    };
    if (std::strcmp(stage, "mac_rx") == 0) {
        marks_[pkt.id] = Marks{.mac_rx = now};
        return;
    }
    auto it = marks_.find(pkt.id);
    if (it == marks_.end()) return;
    Marks& m = it->second;
    if (std::strcmp(stage, "lb_assign") == 0) {
        span(pkt_.ingress, m.mac_rx, now);
        m.lb = now;
    } else if (std::strcmp(stage, "rpu_rx_complete") == 0) {
        span(pkt_.dispatch, m.lb, now);
        m.rpu_rx = now;
    } else if (std::strcmp(stage, "fw_send") == 0) {
        span(pkt_.fw, m.rpu_rx, now);
        m.fw = now;
    } else if (std::strcmp(stage, "fw_drop") == 0) {
        span(pkt_.fw, m.rpu_rx, now);
        marks_.erase(it);
    } else if (std::strcmp(stage, "mac_tx") == 0) {
        span(pkt_.egress, m.fw, now);
        marks_.erase(it);
    } else if (std::strcmp(stage, "host_deliver") == 0) {
        marks_.erase(it);
    }
}

double
Tracer::callee_ns() const {
    double ns = 0;
    for (const CallTimer* t : {&gen, &accel_tick, &accel_mmio, &health, &telemetry, &rx, &observer})
        ns += t->est_ns();
    return ns;
}

}  // namespace perfbench

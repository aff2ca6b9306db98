#include "dist/traffic.h"

namespace rosebud::dist {

TrafficSource::TrafficSource(sim::Kernel& kernel, sim::Stats& stats, const Config& config,
                             Fabric& fabric, GenFn gen)
    : sim::Component(kernel, "source.port" + std::to_string(config.port)),
      config_(config),
      stats_(stats),
      fabric_(fabric),
      gen_(std::move(gen)),
      bytes_per_cycle_(config.line_gbps * 1e9 / 8.0 / sim::kClockHz * config.load),
      pps_per_cycle_(config.max_pps > 0 ? config.max_pps / sim::kClockHz : 0.0) {
    self_advancing_ = true;  // idle_horizon() + on_wake() replay
    // We are the wire side of this port's MAC RX FIFO.
    kernel.declare_port({name(), "fabric.mac_rx.p" + std::to_string(config.port),
                         sim::PortRecord::kWrite, 512, 0});
}

void
TrafficSource::tick() {
    if (config_.max_packets && offered_ >= config_.max_packets) return;

    tokens_ += bytes_per_cycle_;
    if (pps_per_cycle_ > 0) pps_tokens_ += pps_per_cycle_;

    if (!staged_) staged_ = gen_();
    if (!staged_) return;

    while (staged_ && tokens_ >= double(staged_->wire_size()) &&
           (pps_per_cycle_ == 0 || pps_tokens_ >= 1.0)) {
        tokens_ -= double(staged_->wire_size());
        if (pps_per_cycle_ > 0) pps_tokens_ -= 1.0;
        // Timestamp at the start of serialization (the frame has been on
        // the wire for wire_size/line_rate by the time it is delivered).
        staged_->tx_ns =
            kernel().now_ns() - double(staged_->wire_size()) / 50.0 * sim::kNsPerCycle;
        ++offered_;
        const bool ok = (cut_ && kernel().decoupled_running())
                            ? cut_push(staged_)
                            : fabric_.mac_rx(config_.port, staged_);
        if (!ok) ++dropped_;
        staged_.reset();
        if (config_.max_packets && offered_ >= config_.max_packets) break;
        staged_ = gen_();
    }
    // Bound burst accumulation to one frame's worth of credit.
    if (staged_ && tokens_ > 2.0 * double(staged_->wire_size())) {
        tokens_ = 2.0 * double(staged_->wire_size());
    }
}

bool
TrafficSource::decoupled_runnable(sim::Cycle t) const {
    if (!cut_) return true;
    if (cut_->consumer_done() >= t) return true;  // lockstep: exact credit
    // Free-run: the consumer only gains occupancy through this channel and
    // otherwise drains, so snapshot + our undrained pushes upper-bounds the
    // occupancy any admission check this tick could face.
    const sim::CutCredit c = cut_->credit_snapshot();
    const uint64_t outstanding = cut_pushed_bytes_ - c.drained_bytes;
    return c.bytes + outstanding + kFreeRunSlackBytes <= cut_fifo_bytes_;
}

sim::Cycle
TrafficSource::idle_horizon() const {
    if (config_.max_packets && offered_ >= config_.max_packets) return sim::kForever;
    if (!staged_) return 0;  // next tick must call gen_() — run it live
    double n = 0.0;
    const double need = double(staged_->wire_size()) - tokens_;
    if (need > 0.0) {
        if (bytes_per_cycle_ <= 0.0) return sim::kForever;  // load 0: never emits
        n = need / bytes_per_cycle_ - 2.0;
    }
    if (pps_per_cycle_ > 0 && pps_tokens_ < 1.0) {
        // Emission needs BOTH buckets full; the later one dominates.
        const double n2 = (1.0 - pps_tokens_) / pps_per_cycle_ - 2.0;
        if (n2 > n) n = n2;
    }
    if (n <= 0.0) return 0;
    // A finite but astronomically long wait (a near-zero rate): promise a
    // shorter window rather than overflow the conversion.
    constexpr sim::Cycle kLongest = sim::Cycle(1) << 62;
    if (n >= double(kLongest)) return kLongest;
    return sim::Cycle(n);
}

void
TrafficSource::on_wake(sim::Cycle n) {
    if (config_.max_packets && offered_ >= config_.max_packets) return;
    // Exact replay of tick()'s non-emitting path (the lookahead contract
    // guarantees no emission threshold is reached inside this window).
    for (sim::Cycle i = 0; i < n; ++i) {
        tokens_ += bytes_per_cycle_;
        if (pps_per_cycle_ > 0) pps_tokens_ += pps_per_cycle_;
        if (staged_ && tokens_ > 2.0 * double(staged_->wire_size())) {
            tokens_ = 2.0 * double(staged_->wire_size());
        }
    }
}

void
TrafficSource::set_cut_channel(sim::CutChannel<net::PacketPtr>* ch,
                               uint64_t mac_rx_fifo_bytes) {
    cut_ = ch;
    cut_fifo_bytes_ = mac_rx_fifo_bytes;
    if (ch && ctr_rx_frames_ == nullptr) {
        // Same counters Fabric::mac_rx increments (Stats handles are
        // node-stable; Fabric resolved these names at construction).
        std::string pn = "port" + std::to_string(config_.port);
        ctr_rx_frames_ = &stats_.counter(pn + ".rx_frames");
        ctr_rx_bytes_ = &stats_.counter(pn + ".rx_bytes");
        ctr_rx_drops_ = &stats_.counter(pn + ".rx_fifo_drops");
    }
}

bool
TrafficSource::cut_push(const net::PacketPtr& p) {
    // Mirror of Fabric::mac_rx for the reassembler-free configuration the
    // decoupled install path enforces (reassemble() is then the identity).
    // Counters first — mac_rx counts every frame before admission.
    ctr_rx_frames_->add();
    ctr_rx_bytes_->add(p->size());
    p->in_iface = net::Iface(config_.port);
    const sim::Cycle t = now();
    // If the consumer has finished cycle t-1 (and is parked on our `done`
    // counter until we finish t), the snapshot is its exact committed
    // end-of-previous-cycle occupancy; adding our own undrained pushes
    // reproduces mac_rx's committed+staged admission byte-for-byte. When
    // free-running the same sum is a conservative upper bound, and
    // decoupled_runnable only opened this cycle with kFreeRunSlackBytes of
    // headroom under that bound, so the check can only pass — a drop here
    // would be a guess the barrier kernel might not have made.
    const bool synced = cut_->consumer_done() >= t;
    const sim::CutCredit c = cut_->credit_snapshot();
    const uint64_t outstanding = cut_pushed_bytes_ - c.drained_bytes;
    if (c.bytes + outstanding + p->size() > cut_fifo_bytes_) {
        if (!synced) {
            sim::panic("decoupled source " + name() +
                       " overran its free-run credit slack (bound " +
                       std::to_string(c.bytes + outstanding) + " + frame " +
                       std::to_string(p->size()) + " > cap " +
                       std::to_string(cut_fifo_bytes_) + ")");
        }
        ctr_rx_drops_->add();
        return false;
    }
    cut_pushed_bytes_ += p->size();
    cut_->push(t, p);
    return true;
}

TrafficSink::TrafficSink(sim::Kernel& kernel, sim::Stats& stats, std::string name)
    : kernel_(kernel),
      stats_(stats),
      name_(std::move(name)),
      ctr_frames_(&stats.counter(name_ + ".frames")),
      ctr_bytes_(&stats.counter(name_ + ".bytes")) {}

void
TrafficSink::deliver(const net::PacketPtr& pkt) {
    ++frames_;
    bytes_ += pkt->size();
    ++window_frames_;
    window_bytes_ += pkt->size();
    latency_.add(kernel_.now_ns() - pkt->tx_ns);
    if (kernel_.commit_compat()) {
        stats_.counter(name_ + ".frames").add();
        stats_.counter(name_ + ".bytes").add(pkt->size());
    } else {
        ctr_frames_->add();
        ctr_bytes_->add(pkt->size());
    }
}

void
TrafficSink::start_window() {
    window_frames_ = 0;
    window_bytes_ = 0;
    window_start_ = kernel_.now();
    latency_.reset();
}

double
TrafficSink::gbps_since(sim::Cycle from_cycle) const {
    sim::Cycle start = from_cycle ? from_cycle : window_start_;
    sim::Cycle elapsed = kernel_.now() - start;
    if (elapsed == 0) return 0.0;
    return double(window_bytes_) * 8.0 / (double(elapsed) / sim::kClockHz) / 1e9;
}

}  // namespace rosebud::dist

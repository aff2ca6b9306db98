#include "dist/cluster.h"

#include <algorithm>
#include <cmath>

#include "net/flow.h"
#include "sim/log.h"

namespace rosebud::dist {

EcmpSharder::EcmpSharder(unsigned boards)
    : boards_(boards), frames_(boards, 0), bytes_(boards, 0) {
    if (boards == 0) sim::fatal("EcmpSharder needs at least one board");
}

unsigned
EcmpSharder::board_for(const net::Packet& pkt) const {
    // flow_hash is symmetric in direction, so both halves of a TCP
    // conversation land on the same board — the property reassembly and
    // NAT state placement need. Non-IP frames hash to 0 and go to board
    // 0 (they carry no flow state to split).
    return net::packet_flow_hash(pkt) % boards_;
}

unsigned
EcmpSharder::route(const net::Packet& pkt) {
    unsigned b = board_for(pkt);
    frames_[b] += 1;
    bytes_[b] += pkt.size();
    return b;
}

uint64_t
EcmpSharder::total_frames() const {
    uint64_t t = 0;
    for (uint64_t f : frames_) t += f;
    return t;
}

double
EcmpSharder::imbalance() const {
    uint64_t total = total_frames();
    if (total == 0 || boards_ == 0) return 0.0;
    uint64_t hi = *std::max_element(frames_.begin(), frames_.end());
    double fair = double(total) / boards_;
    return fair > 0 ? double(hi) / fair - 1.0 : 0.0;
}

TrafficSource::GenFn
board_filter(TrafficSource::GenFn upstream, const EcmpSharder& sharder,
             unsigned board) {
    return [upstream = std::move(upstream), sharder, board]() -> net::PacketPtr {
        for (;;) {
            net::PacketPtr pkt = upstream();
            if (!pkt || sharder.board_for(*pkt) == board) return pkt;
        }
    };
}

InterBoardLink::InterBoardLink() : InterBoardLink(Config{}) {}

InterBoardLink::InterBoardLink(const Config& cfg)
    : cfg_(cfg), bytes_per_cycle_(cfg.gbps * 1e9 / 8.0 / sim::kClockHz) {
    if (bytes_per_cycle_ <= 0.0)
        sim::fatal("InterBoardLink needs a positive line rate");
}

sim::Cycle
InterBoardLink::transfer(sim::Cycle now, uint32_t bytes) {
    const sim::Cycle start = std::max(now, next_free_);
    const sim::Cycle ser =
        sim::Cycle(std::ceil(double(bytes) / bytes_per_cycle_));
    next_free_ = start + ser;
    busy_cycles_ += ser;
    frames_ += 1;
    bytes_ += bytes;
    const sim::Cycle arrival = start + ser + cfg_.base_latency;
    if (arrival - now > worst_latency_) worst_latency_ = arrival - now;
    return arrival;
}

double
InterBoardLink::utilization(sim::Cycle now) const {
    if (now == 0) return 0.0;
    // Serialization still queued past `now` has not happened yet.
    sim::Cycle busy = busy_cycles_;
    if (next_free_ > now) busy -= std::min(busy, next_free_ - now);
    return double(busy) / double(now);
}

}  // namespace rosebud::dist

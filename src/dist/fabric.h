/// \file
/// The packet-distribution subsystem (paper Section 4.3, Figure 4a).
///
/// One Fabric instance models everything between the wire and the RPUs:
///
///   MAC RX FIFOs -> LB assignment -> stage-1 512-bit switches (one per
///   RPU cluster, per-input virtual output queues, round-robin output
///   arbitration) -> 128-bit per-RPU links (serialized inside the Rpu) ...
///   ... RPU egress queues -> egress cluster switches -> per-destination
///   512-bit serializers -> MAC TX FIFOs -> the wire,
///
/// plus the two low-rate interfaces that share this infrastructure: host
/// DRAM (PCIe virtual Ethernet) and the single-100G loopback channel used
/// for RPU-to-RPU packet messaging (Section 4.4). RX and TX are separate
/// unidirectional switch planes, as in the paper.
///
/// Widths at 250 MHz: MAC line 50 B/cycle (100 Gbps), stage-1 switches
/// 64 B/cycle (512 bit = 128 Gbps), per-RPU links 16 B/cycle (32 Gbps).
/// The per-source issue interval (2 cycles) models the paper's 125 MPPS
/// per-incoming-port distribution limit.

#ifndef ROSEBUD_DIST_FABRIC_H
#define ROSEBUD_DIST_FABRIC_H

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "lb/load_balancer.h"
#include "net/packet.h"
#include "rpu/rpu.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud::dist {

/// Ingress/egress endpoints sharing the distribution infrastructure.
enum Source : unsigned {
    kSrcPort0 = 0,
    kSrcPort1 = 1,
    kSrcHost = 2,
    kSrcLoopback = 3,
    kSourceCount = 4,
};

struct FabricConfig {
    unsigned rpu_count = 16;
    unsigned clusters = 4;
    uint32_t line_bytes_per_cycle = 50;    ///< 100 Gbps MAC at 250 MHz
    uint32_t stage1_bytes_per_cycle = 64;  ///< 512-bit cluster switches
    uint32_t mac_rx_fifo_bytes = 256 * 1024;
    uint32_t mac_tx_fifo_bytes = 64 * 1024;
    unsigned voq_depth = 8;          ///< packets per (source, RPU) virtual queue
    unsigned egress_queue_depth = 4; ///< packets buffered per RPU on egress
    unsigned issue_interval_cycles = 2;  ///< per-source LB issue pacing
    unsigned ingress_pipe_cycles = 86;   ///< fixed pipe: MAC+LB+switch hops
    unsigned egress_pipe_cycles = 85;    ///< fixed pipe on the way out
    uint32_t loopback_header_bytes = 8;  ///< per-packet destination header
    unsigned host_queue_packets = 1024;
    unsigned loopback_queue_packets = 64;
    /// Host-DRAM channel over PCIe Gen3 x16 (paper Section 4.2: host
    /// transfers are packetized with DRAM tags): effective bandwidth and
    /// the number of outstanding-transfer tags.
    double pcie_gbps = 100.0;
    unsigned pcie_tags = 64;
    unsigned pcie_latency_cycles = 250;  ///< ~1 us each way
};

class Fabric : public sim::Component {
 public:
    using SinkFn = std::function<void(net::PacketPtr)>;

    Fabric(sim::Kernel& kernel, sim::Stats& stats, const FabricConfig& config,
           lb::LoadBalancer& lb, std::vector<rpu::Rpu*> rpus);

    /// A frame finished arriving on `port`'s wire. Returns false when the
    /// MAC RX FIFO overflowed (frame dropped and counted). Calls arriving
    /// during another component's tick are staged and integrated at the
    /// clock edge; admission then uses registered credit (the queue's
    /// end-of-previous-cycle occupancy plus what was staged this cycle),
    /// so the outcome is independent of component tick order.
    bool mac_rx(unsigned port, net::PacketPtr pkt);

    /// Host-originated packet (virtual Ethernet over PCIe).
    bool host_inject(net::PacketPtr pkt);

    /// Egress from RPU `rpu` (wired as the Rpu's egress handler).
    /// Returns false to backpressure the RPU's TX engine. Tick-phase
    /// calls are staged like mac_rx (see above).
    bool rpu_egress(uint8_t rpu, net::PacketPtr pkt);

    /// Frames leaving on a physical port arrive here (tester side).
    void set_mac_tx_sink(unsigned port, SinkFn fn);

    /// Packets addressed to the host (port 2).
    void set_host_sink(SinkFn fn);

    void tick() override;

    /// Clock edge: integrate tick-phase arrivals (mac_rx / host_inject /
    /// rpu_egress staged by other components) into the ingress and egress
    /// queues and refresh the registered admission credit.
    void commit() override;

    /// The fabric can sleep when every queue, serializer and staged buffer
    /// on both planes is empty and the PCIe byte credit has saturated (the
    /// only time-varying state left). External arrivals (mac_rx /
    /// host_inject / rpu_egress) wake it.
    bool quiescent() const override;

    /// Optional per-packet observation hook for the debugging tooling
    /// (core/tracer.h): fired at every stage boundary a packet crosses.
    using TraceFn = std::function<void(const char* event, const net::Packet& pkt)>;
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

    /// The "Switching" row of Tables 1-2 (both switch planes + FIFOs).
    sim::ResourceFootprint switching_resources() const;

    /// Per-RPU interconnect footprint ("Single Interconnect" row).
    sim::ResourceFootprint interconnect_resources() const;

    const FabricConfig& config() const { return config_; }

 private:
    struct TimedPkt {
        net::PacketPtr pkt;
        sim::Cycle ready = 0;
    };

    struct IngressSource {
        std::deque<net::PacketPtr> queue;
        uint64_t queue_bytes = 0;
        unsigned issue_cd = 0;
        // Stage-1 serializer state.
        net::PacketPtr active;
        uint32_t cycles_left = 0;
        // Completed transfer waiting for VOQ space.
        net::PacketPtr stalled;
        // Registered-credit admission: occupancy snapshot taken at the last
        // clock edge plus packets staged during the current tick. Tick-phase
        // producers admit against these, never against the live queue, so
        // admission cannot observe same-cycle pops (order independence).
        uint64_t admit_bytes = 0;
        size_t admit_count = 0;
        std::vector<net::PacketPtr> staged;
        uint64_t staged_bytes = 0;
    };

    struct EgressDest {
        net::PacketPtr active;
        uint32_t cycles_left = 0;
        net::PacketPtr done;  ///< waiting for downstream space
        unsigned rr = 0;
    };

    struct MacTx {
        std::deque<TimedPkt> fifo;
        uint64_t fifo_bytes = 0;
        net::PacketPtr active;
        uint32_t cycles_left = 0;
        uint32_t line_credit = 0;  ///< fractional-cycle carry (bit-serial line)
        SinkFn sink;
    };

    unsigned cluster_of(uint8_t rpu) const { return rpu / rpus_per_cluster_; }
    std::deque<TimedPkt>& voq(uint8_t rpu, unsigned source) {
        return voqs_[rpu * kSourceCount + source];
    }
    // Telemetry taps on the abstract (non-sim::Fifo) links; one pointer
    // compare when no sink is attached.
    void tel(sim::NetId net, sim::TelemetrySink::NetEvent ev) const {
        if (sim::TelemetrySink* t = kernel().telemetry()) t->net_event(net, ev);
    }
    sim::NetId voq_net(uint8_t rpu, unsigned source) const {
        return voq_net_[rpu * kSourceCount + source];
    }
    void tick_ingress_source(unsigned s);
    void tick_rpu_links();
    void tick_egress();
    bool try_egress_handoff(unsigned d, const net::PacketPtr& p);
    void tick_mac_tx();
    void tick_loopback();
    void declare_netlist(sim::Kernel& kernel);

    FabricConfig config_;
    sim::Stats& stats_;
    lb::LoadBalancer& lb_;
    std::vector<rpu::Rpu*> rpus_;
    unsigned rpus_per_cluster_;

    // Per-packet counters resolved once at construction (Stats handles are
    // node-stable); the tick path must not do string-keyed map lookups.
    sim::Counter* ctr_rx_frames_[2];
    sim::Counter* ctr_rx_bytes_[2];
    sim::Counter* ctr_rx_drops_[2];
    sim::Counter* ctr_tx_frames_[2];
    sim::Counter* ctr_tx_bytes_[2];
    sim::Counter* ctr_voq_stall_;
    sim::Counter* ctr_host_tx_frames_;
    sim::Counter* ctr_host_rx_frames_;
    sim::Counter* ctr_host_rx_bytes_;
    sim::Counter* ctr_host_tag_stall_;
    sim::Counter* ctr_loopback_frames_;
    sim::Counter* ctr_loopback_bytes_;

    // Net ids of the abstract links, resolved at elaboration.
    sim::NetId source_net_[kSourceCount];
    std::vector<sim::NetId> voq_net_;     ///< [rpu][source]
    std::vector<sim::NetId> egress_net_;  ///< per RPU
    sim::NetId mac_tx_net_[2];
    sim::NetId host_out_net_;

    IngressSource sources_[kSourceCount];
    std::vector<std::deque<TimedPkt>> voqs_;  ///< [rpu][source]
    std::vector<unsigned> rpu_rr_;            ///< per-RPU source arbitration
    size_t voq_pkts_ = 0;     ///< total packets across all VOQs (scan guard)
    std::vector<uint32_t> voq_pkts_rpu_;  ///< per-RPU VOQ packets (scan guard)
    size_t egress_pkts_ = 0;  ///< total packets across egress queues
    uint32_t egress_pkts_dest_[kSourceCount] = {0, 0, 0, 0};  ///< per destination
    /// Set by any queue mutation whose effect commit() must integrate or
    /// re-snapshot.
    bool commit_dirty_ = false;

    std::vector<std::deque<TimedPkt>> egress_queues_;  ///< per RPU
    EgressDest egress_[kSourceCount];                  ///< per destination
    /// Registered egress credit, mirroring IngressSource's admission state.
    std::vector<std::vector<TimedPkt>> egress_staged_;  ///< per RPU
    std::vector<size_t> egress_committed_;              ///< per RPU

    MacTx mac_tx_[2];
    std::deque<TimedPkt> host_out_;
    SinkFn host_sink_;
    double pcie_credit_ = 0.0;      ///< byte credit for the host channel
    unsigned pcie_tags_in_use_ = 0; ///< outstanding DMA transfers

    // Loopback channel drain (single 100G port with per-packet header).
    struct {
        net::PacketPtr active;
        uint32_t cycles_left = 0;
        uint32_t line_credit = 0;
    } loopback_;

    TraceFn trace_;
    void trace(const char* event, const net::Packet& pkt) {
        if (trace_) trace_(event, pkt);
    }
};

}  // namespace rosebud::dist

#endif  // ROSEBUD_DIST_FABRIC_H

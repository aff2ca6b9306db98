/// \file
/// The Reconfigurable Packet-processing Unit (paper Sections 3-4).
///
/// An Rpu bundles a RISC-V core, the three-part memory subsystem (Figure
/// 3), the interconnect/DMA engine that exchanges packets with the
/// distribution subsystem, an accelerator socket, and the broadcast
/// messaging endpoint. It lives inside a partially reconfigurable region:
/// the host can halt it, swap firmware and accelerator, and boot it again
/// while the rest of the system keeps running.
///
/// Timing model highlights (all per DESIGN.md):
///  * the per-RPU data link is 128 bits wide (16 B/cycle = 32 Gbps), and a
///    packet is fully loaded into packet memory before the core sees its
///    descriptor (paper Section 6.2 — this is the 2/32 term of Eq. 1);
///  * the ingress DMA has a fixed per-packet setup overhead
///    (`ingress_gap_cycles`) that does not overlap the next transfer,
///    which is what keeps 8-RPU configurations from sustaining 200 Gbps
///    below ~1 KB packets (Figure 7b);
///  * the egress engine serializes at the same 16 B/cycle and then frees
///    the packet slot toward the LB.

#ifndef ROSEBUD_RPU_RPU_H
#define ROSEBUD_RPU_RPU_H

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/memory.h"
#include "net/packet.h"
#include "rpu/accelerator.h"
#include "rpu/descriptor.h"
#include "rv/core.h"
#include "sim/fifo.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud::rpu {

/// Slot configuration announced by firmware at boot (init_slots /
/// init_hdr_slots in the paper's C library).
struct SlotConfig {
    uint32_t count = 0;
    uint32_t base = 0;  ///< data address of slot 1
    uint32_t size = 0;  ///< bytes per slot
    uint32_t hdr_base = kDefaultHdrBase;
    uint32_t hdr_size = kDefaultHdrSlotSize;
};

/// A Reconfigurable Packet-processing Unit.
class Rpu : public sim::Component {
 public:
    struct Config {
        uint8_t id = 0;
        uint32_t link_bytes_per_cycle = 16;  ///< 128-bit link at 250 MHz = 32 Gbps
        uint32_t ingress_gap_cycles = 11;    ///< per-packet DMA setup overhead
        uint32_t rx_fifo_depth = 64;
        uint32_t tx_cmd_depth = 8;
        uint32_t bcast_notify_depth = 16;
    };

    Rpu(sim::Kernel& kernel, sim::Stats& stats, const Config& config);

    // --- host-side control (used by host::HostContext) ---------------------

    /// Load an instruction image at kImemBase and set the boot PC.
    void load_firmware(const std::vector<uint32_t>& image, uint32_t entry = 0);

    /// Install/replace the accelerator (partial reconfiguration payload).
    void attach_accelerator(std::unique_ptr<Accelerator> accel);
    Accelerator* accelerator() { return accel_.get(); }

    /// Reset and start the core at the loaded entry point.
    void boot();

    /// Stop the core (it stops consuming cycles; memories stay intact).
    void halt();

    bool core_halted() const { return core_.halted(); }
    bool core_faulted() const { return core_.faulted(); }

    /// Host interrupts (paper: poke/evict). These flush skipped-cycle
    /// accounting before touching the status register (a sleeping core's
    /// catch-up replay must see the pre-poke value) and wake the RPU.
    void raise_poke();
    void raise_evict();

    uint32_t debug_low() const { return debug_low_; }
    uint32_t debug_high() const { return debug_high_; }

    /// Direct host access to RPU memories (debug dumps, table loads).
    mem::Memory& dmem() { return dmem_; }
    mem::Memory& pmem() { return pmem_; }
    mem::Memory& amem() { return amem_; }
    const std::vector<uint32_t>& imem() const { return imem_; }

    const rv::Core& core() const { return core_; }
    rv::Core& core() { return core_; }

    // --- distribution-subsystem interface -----------------------------------

    /// True if the ingress link can accept a new packet this cycle. During
    /// the tick phase this is a post-tick lookahead of the committed RX
    /// engine state, so the answer does not depend on whether this RPU has
    /// ticked yet (tick-order independence); outside the tick phase it
    /// reports the committed state directly.
    bool rx_ready() const;

    /// Begin streaming `pkt` into packet memory (dest_slot must be set).
    /// Precondition: rx_ready(). During the tick phase the transfer is
    /// staged and starts at this cycle's commit; host/test callers outside
    /// the tick phase start it immediately.
    void begin_rx(net::PacketPtr pkt);

    /// The ingress link's net (its telemetry events are emitted by the
    /// fabric on push and by the RX engine on each flit).
    sim::NetId link_in_net() const { return link_in_net_; }

    /// Number of packets currently buffered in this RPU (in flight +
    /// waiting for the core + being transmitted).
    uint32_t occupancy() const { return occupancy_; }

    /// The slot configuration last committed by firmware.
    const SlotConfig& slot_config() const { return slots_; }

    // --- system wiring -------------------------------------------------------

    /// Egress: called when a packet finished serializing out of the RPU.
    /// Return false to backpressure (TX engine retries next cycle).
    using EgressHandler = std::function<bool(net::PacketPtr)>;
    void set_egress_handler(EgressHandler h) { egress_ = std::move(h); }

    /// Called when a packet slot is freed (LB bookkeeping).
    using SlotFreeHandler = std::function<void(uint8_t rpu, uint8_t slot)>;
    void set_slot_free_handler(SlotFreeHandler h) { slot_free_ = std::move(h); }

    /// Called when firmware commits its slot configuration.
    using SlotConfigHandler = std::function<void(uint8_t rpu, const SlotConfig&)>;
    void set_slot_config_handler(SlotConfigHandler h) { slot_config_cb_ = std::move(h); }

    /// Broadcast TX: return false when the message FIFO is full (the
    /// core's store then blocks, as in the paper).
    using BroadcastSender = std::function<bool(uint8_t rpu, uint32_t offset, uint32_t value)>;
    void set_broadcast_sender(BroadcastSender h) { bcast_send_ = std::move(h); }

    /// Remote-slot allocation for loopback sends: the request is routed to
    /// the LB, which answers (at its commit) via slot_response(). Firmware
    /// polls kRegLbSlotResp for the answer.
    using SlotRequestHandler = std::function<void(uint8_t requester, uint8_t dst_rpu)>;
    void set_slot_request_handler(SlotRequestHandler h) { slot_req_ = std::move(h); }

    /// LB answer to a routed slot request: `slot` empty = denied.
    void slot_response(uint8_t dst_rpu, std::optional<uint8_t> slot) {
        slot_resp_ = slot ? (uint32_t(dst_rpu + 1) << 16 | *slot) : 1u;
    }

    /// Broadcast delivery from the messaging network (simultaneous on all
    /// RPUs): updates the local semi-coherent copy + notify FIFO.
    void broadcast_deliver(uint32_t offset, uint32_t value);

    /// Read a word of the local semi-coherent broadcast copy (host-side
    /// debugging; the region is not in the host-mapped memory space).
    uint32_t broadcast_word(uint32_t offset) const {
        uint32_t v = 0;
        if (offset + 4 <= kBcastSize) std::memcpy(&v, &bcast_mem_[offset], 4);
        return v;
    }

    /// Optional per-packet observation hook (core/tracer.h).
    using TraceFn = std::function<void(const char* event, const net::Packet& pkt)>;
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

    // --- simulation ----------------------------------------------------------

    void tick() override;

    /// Applies the RX-engine state transition staged by tick() plus any
    /// begin_rx/broadcast delivery staged by other components this cycle.
    void commit() override;

    /// Quiescent when every input is frozen and the core is either halted
    /// or spinning in a proven stable poll loop (rv::Core's idle-loop
    /// watcher) — see DESIGN.md §11.
    bool quiescent() const override;

    /// Footprint of the base RPU (core + memory subsystem + accelerator
    /// manager), excluding the attached accelerator.
    sim::ResourceFootprint base_resources() const;

    /// Base + attached accelerator.
    sim::ResourceFootprint resources() const;

    uint8_t id() const { return config_.id; }

 protected:
    /// Catch the core up on cycles skipped while asleep (arithmetic for
    /// whole loop periods or a halted core, tick replay for the remainder;
    /// exact because the replayed instructions see the same frozen inputs
    /// they would have seen live).
    void on_wake(sim::Cycle skipped_cycles) override;

 private:
    friend class RpuBus;

    /// rv::Bus implementation mapping the RPU address space.
    class RpuBus : public rv::Bus {
     public:
        explicit RpuBus(Rpu& rpu) : rpu_(rpu) {}
        Access load(uint32_t addr, uint32_t size) override;
        Access store(uint32_t addr, uint32_t size, uint32_t value) override;
        uint32_t fetch(uint32_t addr) override;
        bool watch_safe_read(uint32_t addr) const override;

     private:
        Rpu& rpu_;
    };

    uint32_t io_read(uint32_t offset);
    void io_write(uint32_t offset, uint32_t value);
    void apply_begin_rx(net::PacketPtr pkt);
    void finish_rx();
    void tick_tx();
    void declare_netlist(sim::Kernel& kernel);
    std::string stat(const char* suffix) const;

    /// True when no RPU engine can make progress and no input can change
    /// without an external call: the license both for arming the core's
    /// idle-loop watcher and (in quiescent()) for sleeping.
    bool inputs_frozen() const;

    Config config_;
    sim::Stats& stats_;

    // Memories.
    std::vector<uint32_t> imem_;
    mem::Memory dmem_;
    mem::Memory pmem_;
    mem::Memory amem_;

    RpuBus bus_;
    rv::Core core_;
    uint32_t entry_pc_ = 0;

    std::unique_ptr<Accelerator> accel_;

    // Slot bookkeeping.
    SlotConfig slots_;
    SlotConfig staged_slots_;  ///< being written by firmware, pre-commit
    std::vector<net::PacketPtr> slot_pkts_;

    // RX engine. `rx_remaining_`/`rx_gap_` are the committed state other
    // components may observe (through rx_ready's lookahead); tick() stages
    // the next values and commit() applies them, so the engine advances
    // identically under any component tick order.
    sim::Fifo<Desc> rx_fifo_;
    net::PacketPtr rx_pkt_;
    sim::NetId link_in_net_ = sim::kNoNet;
    uint32_t rx_remaining_ = 0;  ///< cycles left in the current transfer
    uint32_t rx_gap_ = 0;        ///< post-transfer setup gap
    uint32_t rx_next_remaining_ = 0;  ///< staged by tick()
    uint32_t rx_next_gap_ = 0;        ///< staged by tick()
    net::PacketPtr rx_pending_;       ///< begin_rx staged during a tick
    /// Mirrors rx_pending_'s occupancy for cross-thread observers: under
    /// threaded ticks (a decoupled shard's tick helpers) the fabric stages
    /// begin_rx from another worker while
    /// this RPU's tick polls inputs_frozen(). The pointer itself is only
    /// touched across the tick/commit barrier (which orders it); the flag
    /// carries the same-cycle occupancy answer race-free.
    std::atomic<bool> rx_pending_flag_{false};
    uint32_t occupancy_ = 0;

    // TX engine.
    struct TxCmd {
        Desc desc;
        uint16_t dest = 0;  ///< rpu<<8|slot for loopback sends
    };
    sim::Fifo<TxCmd> tx_fifo_;
    std::optional<TxCmd> tx_cur_;
    net::PacketPtr tx_out_;      ///< assembled packet waiting for egress space
    uint32_t tx_remaining_ = 0;
    uint32_t send_low_latch_ = 0;
    uint16_t send_dest_latch_ = 0;

    // Interconnect registers.
    uint32_t timer_cmp_ = 0;  ///< cycles until the watchdog fires (0 = off)
    uint32_t debug_low_ = 0;
    uint32_t debug_high_ = 0;
    uint32_t irq_mask_ = 0;
    uint32_t irq_status_ = 0;

    // Broadcast endpoint. Deliveries arriving during a tick are staged in
    // `bcast_pending_` and land in the semi-coherent copy at commit.
    std::vector<uint8_t> bcast_mem_;
    std::vector<std::pair<uint32_t, uint32_t>> bcast_pending_;
    sim::Fifo<std::pair<uint32_t, uint32_t>> bcast_notify_;
    uint64_t bcast_notify_drops_ = 0;

    // Loopback slot request state.
    std::optional<uint32_t> slot_resp_;
    uint32_t slot_resp_ready_cycle_ = 0;

    // Idle-loop watcher arm state (tracks inputs_frozen across ticks).
    bool idle_watching_ = false;

    // Hot-path counter handles, resolved once at construction (the tick
    // path must not build dotted names or walk the stats map per packet).
    sim::Counter* ctr_rx_packets_ = nullptr;
    sim::Counter* ctr_rx_bytes_ = nullptr;
    sim::Counter* ctr_rx_bad_slot_ = nullptr;
    sim::Counter* ctr_tx_packets_ = nullptr;
    sim::Counter* ctr_tx_bytes_ = nullptr;
    sim::Counter* ctr_tx_stall_cycles_ = nullptr;
    sim::Counter* ctr_dropped_packets_ = nullptr;

    // Reused header-mirror staging buffer (no per-packet allocation).
    std::vector<uint8_t> hdr_scratch_;

    // Wiring.
    TraceFn trace_;
    void trace(const char* event, const net::Packet& pkt) {
        if (trace_) trace_(event, pkt);
    }
    EgressHandler egress_;
    SlotFreeHandler slot_free_;
    SlotConfigHandler slot_config_cb_;
    BroadcastSender bcast_send_;
    SlotRequestHandler slot_req_;
};

}  // namespace rosebud::rpu

#endif  // ROSEBUD_RPU_RPU_H

/// \file
/// Telemetry sink interface — the substrate of the observability layer.
///
/// The paper's host control plane exposes "status counters ... transferred
/// bytes, frames, drops, or stalled cycles" (Section 4.3); this interface is
/// how the simulator grows that into full stall *attribution*. A TelemetrySink
/// registered with the Kernel receives a low-level event stream from every
/// registered primitive (sim::Fifo) and from components that own abstract
/// links (the fabric's queues, the LB assignment interface, the per-RPU
/// ingress links): push accepted, push blocked on credit, pop, consumer-
/// poll-found-empty, plus one clock edge per cycle. The obs:: layer turns
/// that stream into per-cycle idle/busy/stalled/starved classification, VCD
/// waveforms and Perfetto traces.
///
/// Events are typed: Kernel::declare_net gives every net a dense NetId,
/// emitters resolve theirs at construction, and the hot path carries
/// `(NetId, NetEvent)` with no string built or looked up. Occupancy is not
/// pushed; a sink that wants it reads the kernel's occupancy probes at
/// end_cycle, and every occupancy change comes with an event on its net
/// in the same cycle, so a reader need only look at touched nets.
///
/// The by-name overload is the one adapter kept for forwarding sinks
/// written against names (tracers, counters): the typed call's default
/// forwards by name through the bound kernel, and obs::Telemetry resolves
/// a by-name event back to its NetId. `net_occupancy` survives only for
/// such forwarders' signatures; the kernel never calls it.
///
/// The hooks cost one pointer compare per operation when no sink is attached
/// (the default), so production sweeps pay nothing; no sim::Stats counters
/// are created either way, which keeps System::state_fingerprint bit-identical
/// with telemetry on or off.
///
/// HealthProbe is the *production* counterpart: where a TelemetrySink wants
/// the complete per-primitive event stream (and therefore disables idle
/// skipping), a HealthProbe only needs a periodic
/// heartbeat plus on-demand reads of committed state. Attaching one costs a
/// single pointer compare per stepped cycle and leaves every kernel fast
/// path enabled — that is what lets the always-on health layer (obs::
/// HealthMonitor) ride along production sweeps within its overhead budget.

#ifndef ROSEBUD_SIM_TELEMETRY_H
#define ROSEBUD_SIM_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace rosebud::sim {

class Kernel;

/// Dense per-kernel net identifier (Kernel::declare_net), stable for the
/// kernel's lifetime.
using NetId = uint32_t;
inline constexpr NetId kNoNet = ~NetId(0);

/// Receives the raw per-cycle event stream. Implementations classify and
/// aggregate; emitters never interpret.
class TelemetrySink {
 public:
    /// One micro-event on a net (a Fifo primitive or an abstract link).
    enum class NetEvent : uint8_t {
        kPushOk,       ///< a value was accepted this cycle (data moved in)
        kPushBlocked,  ///< a producer saw no credit (stalled-on-credit)
        kPop,          ///< a value was consumed this cycle (data moved out)
        kPollEmpty,    ///< a consumer polled and found nothing (starved)
        /// Committed occupancy changed with no data crossing the net (a
        /// reset clear, a PCIe tag release, the loopback re-entry).
        /// Classifies nothing; it tells an occupancy reader to look.
        kOccupancy,
    };

    virtual ~TelemetrySink() = default;

    /// An event on net `net` during the current cycle. Multiple events per
    /// net per cycle are expected; sinks classify on booleans, so emitters
    /// need not dedupe. The default forwards by name (see file comment).
    virtual void net_event(NetId net, NetEvent ev);

    /// By-name adapter for forwarding sinks.
    virtual void net_event(const std::string& net, NetEvent ev) = 0;

    /// Kept for forwarding sinks' signatures; never called by the kernel.
    virtual void net_occupancy(const std::string&, size_t, size_t) {}

    /// The clock edge: cycle `completed` has fully committed. Sinks close
    /// the per-cycle classification window here.
    virtual void end_cycle(uint64_t completed) = 0;

    /// Resolve names through `kernel`: Kernel::set_telemetry binds the
    /// attached sink, and a chaining sink binds its successor.
    void bind(const Kernel& kernel) { bound_kernel_ = &kernel; }

 private:
    const Kernel* bound_kernel_ = nullptr;
};

/// A lightweight per-cycle heartbeat for always-on health monitoring.
///
/// Called once at the end of every *stepped* cycle, after all commits (and
/// after any TelemetrySink's end_cycle). Cycles elided by whole-system
/// fast-forward are NOT reported individually: by construction nothing can
/// change during them (every component is asleep and no host call can
/// occur inside the run loop), so implementations must tolerate gaps in
/// `completed` and may treat a gap as proof of system-wide idleness. A
/// jump never crosses next_deadline(): that cycle is stepped.
///
/// Unlike TelemetrySink, attaching a HealthProbe does not disable idle
/// skipping, creates no sim::Stats counters, and must not mutate
/// simulation state — the fingerprint-invariance tests hold with a probe
/// attached.
class HealthProbe {
 public:
    virtual ~HealthProbe() = default;

    /// Cycle `completed` has fully committed. Runs in the host phase
    /// (Kernel::phase() == kIdle), so committed primitive state may be
    /// read freely.
    virtual void on_cycle(uint64_t completed) = 0;

    /// The next cycle whose on_cycle() must fire even if the whole system
    /// sleeps (an epoch boundary, a watchdog check); polled before jumps.
    virtual uint64_t next_deadline() const { return UINT64_MAX; }
};

}  // namespace rosebud::sim

#endif  // ROSEBUD_SIM_TELEMETRY_H

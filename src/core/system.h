/// \file
/// The top-level Rosebud system (paper Figure 2): N RPUs in four clusters,
/// the customizable load balancer, the two-plane packet-distribution
/// fabric, the inter-RPU broadcast network, the host control plane, and
/// the traffic endpoints standing in for the tester FPGA.
///
/// This is the primary public entry point of the library:
///
///   rosebud::SystemConfig cfg;
///   cfg.rpu_count = 16;
///   rosebud::System sys(cfg);
///   sys.host().load_firmware_all(fwlib::forwarder().image);
///   sys.host().boot_all();
///   sys.add_source({.port = 0}, gen);
///   sys.run_cycles(100'000);

#ifndef ROSEBUD_CORE_SYSTEM_H
#define ROSEBUD_CORE_SYSTEM_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/fabric.h"
#include "dist/traffic.h"
#include "host/host.h"
#include "lb/load_balancer.h"
#include "lint/netlist.h"
#include "lint/shard.h"
#include "msg/broadcast.h"
#include "rpu/rpu.h"
#include "sim/kernel.h"
#include "sim/resources.h"
#include "sim/stats.h"

namespace rosebud {

/// Policy for the elaboration-time netlist lint that runs before cycle 0.
enum class LintMode {
    kEnforce,  ///< violations are fatal before the first tick (default)
    kWarn,     ///< violations are logged, simulation proceeds
    kOff,      ///< no automatic lint (explicit lint_check() still works)
};

struct SystemConfig {
    unsigned rpu_count = 16;
    lb::Policy lb_policy = lb::Policy::kRoundRobin;
    bool hw_reassembler = false;  ///< inline reorder engine in the LB
    /// Steering function for lb::Policy::kCustom (tenant pinning, etc.).
    std::function<uint32_t(const net::Packet&)> lb_custom_steer;
    /// Overrides applied on top of the derived defaults; rpu_count fields
    /// inside are filled in by System.
    dist::FabricConfig fabric{};
    rpu::Rpu::Config rpu_template{};
    msg::BroadcastNetwork::Config broadcast{};
    /// Static firmware-verifier gate policy applied to every host firmware
    /// load (kEnforce rejects provably bad images before they run).
    host::FirmwareCheck firmware_check = host::FirmwareCheck::kEnforce;
    /// Line-rate admission gate: require a finite certified WCET, a finite
    /// stack bound and the text-write-separation proof on every firmware
    /// load (off by default; the multi-tenant control plane turns it on).
    host::FirmwareCheck wcet_check = host::FirmwareCheck::kOff;
    /// Per-activation cycle budget enforced by the admission gate when
    /// non-zero (tenant QoS contract; 0 = bounded-only, no budget compare).
    uint64_t wcet_budget_cycles = 0;
    /// Elaboration-time netlist lint policy (see LintMode).
    LintMode lint = LintMode::kEnforce;
    /// When non-zero, the pre-cycle-0 gate also runs the shard-cut
    /// certifier (lint::certify_partition) for this shard count and
    /// applies the LintMode policy to an unsound verdict. Plan export
    /// only — kernel scheduling is unchanged; the time-decoupled kernel
    /// (ROADMAP item 1) is the consumer of the certified plan.
    unsigned certify_shards = 0;
};

/// PR region capacities of the pre-laid-out floorplans (paper Figures 5-6;
/// equal to the "RPU" rows of Tables 3-4).
sim::ResourceFootprint pr_region_capacity(unsigned rpu_count);

/// LB PR block capacity ("LB" + "Remaining" rows of Tables 1-2).
sim::ResourceFootprint lb_region_capacity(unsigned rpu_count);

class System {
 public:
    explicit System(const SystemConfig& config);
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    sim::Kernel& kernel() { return kernel_; }
    sim::Stats& stats() { return stats_; }
    lb::LoadBalancer& lb() { return *lb_; }
    dist::Fabric& fabric() { return *fabric_; }
    msg::BroadcastNetwork& broadcast() { return *broadcast_; }
    host::HostContext& host() { return *host_; }
    rpu::Rpu& rpu(unsigned idx) { return *rpus_.at(idx); }
    unsigned rpu_count() const { return unsigned(rpus_.size()); }
    const SystemConfig& config() const { return config_; }

    /// Install an accelerator (from `factory`) into every RPU.
    void attach_accelerators(
        const std::function<std::unique_ptr<rpu::Accelerator>()>& factory);

    /// Tester-side sinks wired to the two physical ports.
    dist::TrafficSink& sink(unsigned port) { return *sinks_.at(port); }

    /// Add a paced traffic source feeding one physical port.
    dist::TrafficSource& add_source(const dist::TrafficSource::Config& cfg,
                                    dist::TrafficSource::GenFn gen);

    // --- packet lifecycle observation ----------------------------------------

    /// Per-packet lifecycle callback: fired at every stage boundary a
    /// packet crosses (mac_rx, lb_assign, rpu_rx_complete, fw_send,
    /// fw_drop, mac_tx, host_deliver, ...). Multiple observers may be
    /// registered concurrently; this is the API the tracing tooling
    /// (core/tracer.h) and the golden-model scoreboard (oracle/) share.
    using PacketObserver =
        std::function<void(const char* stage, const net::Packet& pkt, sim::Cycle now)>;

    /// Register an observer; returns a handle for remove_packet_observer.
    /// Registration takes over the Fabric/Rpu `set_trace` hooks — do not
    /// mix direct set_trace calls with this API on the same System.
    /// Observers that may die before the System must deregister; an
    /// observer living at least as long as the System may skip that.
    uint64_t add_packet_observer(PacketObserver fn);

    /// Deregister. Safe to call from within a dispatch.
    void remove_packet_observer(uint64_t handle);

    // --- time-decoupled execution (DESIGN.md §16) ----------------------------

    /// Request time-decoupled execution over a certified N-way ShardPlan
    /// (the runtime consumer of lint::certify_partition). The request is
    /// latent: installation happens at the next run_cycles() once the
    /// netlist includes the traffic sources (certifying during boot would
    /// see only the DUT atom). `workers` > 1 additionally partitions the
    /// DUT shard's tick phase over that many threads; 0 picks a default.
    /// `shards` <= 1 is the null plan: the barrier kernel, bit-identical
    /// to a serial run by definition. Structural obstacles (an unsound
    /// plan, the hardware reassembler, packet observers, an unsupported
    /// cut net) warn once and fall back to the barrier kernel.
    void set_decouple_shards(unsigned shards, unsigned workers = 0);

    /// How decoupled shards map onto host threads (kAuto = one thread per
    /// shard on a multi-core host, cooperative interleaving on a single
    /// hardware thread). Takes effect at the next install; the equivalence
    /// tests force both modes explicitly.
    void set_decouple_exec(sim::ShardSpec::Exec e) { decouple_exec_ = e; }

    /// True once the decoupled executor is installed (after the first
    /// post-source run_cycles under a live request).
    bool decoupled_active() const { return decouple_installed_; }

    /// The certified plan backing the installed executor (null until
    /// decoupled_active()).
    const lint::ShardPlan* decoupled_plan() const { return decouple_plan_.get(); }

    /// Observed-latency stats per cut channel, for the dynamic lookahead
    /// cross-check (obs::run_shard_check): every delivery must satisfy
    /// observed latency >= certified. Empty until decoupled_active().
    std::vector<sim::CutChannelStats> decoupled_channel_report() const;

    /// Advance simulated time.
    void run_cycles(sim::Cycle n) {
        if (decouple_request_ > 1 && !decouple_installed_ && !decouple_failed_)
            try_install_decoupled();
        kernel_.run(n);
    }
    void run_us(double us) { run_cycles(sim::Cycle(us * 1e3 / sim::kNsPerCycle)); }

    /// One named row of a utilization table.
    struct ResourceRow {
        std::string name;
        sim::ResourceFootprint fp;
    };

    /// The rows of Tables 1-2 for this configuration.
    std::vector<ResourceRow> resource_report() const;

    /// Run the full static lint over the elaborated netlist: structural
    /// checks, the paper's bus-width table, and the resource-model
    /// consistency checks (component sum vs "Complete design", fit on the
    /// VU9P). Returns every violation found (empty = clean). This is what
    /// the automatic pre-cycle-0 gate runs under LintMode::kEnforce/kWarn.
    std::vector<lint::Violation> lint_check() const;

    /// Certified shard partition of the elaborated netlist (see
    /// lint/shard.h). Purely analytical: does not change scheduling.
    /// Certify after all wiring (sources, accelerators) is declared —
    /// any later declare_net/declare_port invalidates the plan.
    lint::ShardPlan shard_plan(unsigned shards) const;

    /// Order-insensitive digest of the architecturally visible state:
    /// every stats counter, sink frame/byte/latency records, per-RPU
    /// debug registers and slot occupancy, and the LB free-slot lists.
    /// Two runs of the same workload must produce the same fingerprint
    /// regardless of component tick order (kernel().shuffle_tick_order).
    uint64_t state_fingerprint() const;

 private:
    SystemConfig config_;
    sim::Kernel kernel_;
    sim::Stats stats_;
    std::vector<std::unique_ptr<rpu::Rpu>> rpus_;
    std::unique_ptr<lb::LoadBalancer> lb_;
    std::unique_ptr<msg::BroadcastNetwork> broadcast_;
    std::unique_ptr<dist::Fabric> fabric_;
    std::unique_ptr<host::HostContext> host_;
    std::vector<std::unique_ptr<dist::TrafficSink>> sinks_;
    std::vector<std::unique_ptr<dist::TrafficSource>> sources_;

    struct Observer {
        uint64_t handle = 0;
        PacketObserver fn;  ///< null = removed, compacted lazily
    };
    void dispatch_packet_event(const char* stage, const net::Packet& pkt);
    std::vector<Observer> observers_;
    uint64_t next_observer_handle_ = 1;
    bool observer_hooks_installed_ = false;

    void try_install_decoupled();
    void detach_cut_channels();
    unsigned decouple_request_ = 0;
    unsigned decouple_workers_ = 0;
    sim::ShardSpec::Exec decouple_exec_ = sim::ShardSpec::Exec::kAuto;
    bool decouple_installed_ = false;
    bool decouple_failed_ = false;
    std::unique_ptr<lint::ShardPlan> decouple_plan_;
    std::vector<std::unique_ptr<sim::CutChannel<net::PacketPtr>>> cut_channels_;
};

}  // namespace rosebud

#endif  // ROSEBUD_CORE_SYSTEM_H

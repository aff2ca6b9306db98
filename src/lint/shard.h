/// \file
/// Static shard-cut certifier over the elaboration netlist.
///
/// An analysis of the netlist: which component partitions have cut edges
/// with *provably* nonzero forwarding latency. That latency is the
/// lookahead a conservative parallel scheduler would need to advance a
/// shard's local clock (the FireSim latency-bounded-channel argument);
/// the simulator itself runs one serial kernel and does not consume the
/// plan. This pass derives those bounds from the netlist the primitives
/// and components already declare:
///
///  * a registered FIFO net forwards with latency >= 1 (a push at cycle T
///    is first poppable at T+1 — the two-phase commit plus the dynamic
///    race detector enforce exactly this);
///  * a `NetRecord::kCreditRegistered` feedback path returns credit with
///    latency >= 1 (admission snapshots committed+staged occupancy and
///    cannot observe same-cycle pops);
///  * everything else is conservatively combinational (latency 0): Reg
///    observations are polled with no message stream to carry a bound,
///    kLink nets are direct-call boundaries where the producer runs the
///    consumer inside its own tick, and skid-buffer credit observes
///    same-cycle pops.
///
/// Components joined by any zero-latency edge must land in the same shard
/// ("atom"); `certify_partition` condenses the graph, detects directed
/// zero-latency cycles (which make every cut through them unsound in both
/// directions), balances the atoms over the requested shard count, and
/// emits a `ShardPlan` whose every cut edge carries lookahead >= 1 *by
/// construction* — or a proven "no safe cut" verdict naming the limiting
/// zero-latency paths. The plan is validated dynamically by
/// obs::ShardLatencyRecorder (obs/shardcheck.h), which faults if any
/// instrumented run ever observes a cross-cut message undercutting its
/// certified bound.

#ifndef ROSEBUD_LINT_SHARD_H
#define ROSEBUD_LINT_SHARD_H

#include <string>
#include <vector>

#include "sim/kernel.h"

namespace rosebud::lint {

/// One directed inter-component influence edge with its provable minimum
/// latency in cycles (how long before an action by `from` can first be
/// observed by `to` through `net`).
struct LatencyEdge {
    enum Kind : uint8_t {
        kData,    ///< writer -> reader forwarding
        kCredit,  ///< reader -> writer credit/backpressure return
    };

    std::string from;
    std::string to;
    std::string net;
    Kind kind = kData;
    unsigned latency = 0;  ///< provable minimum (0 = combinational)
    std::string reason;    ///< why this latency is provable
};

/// A directed cycle made entirely of zero-latency edges: any shard cut
/// through it is unsound in both directions (neither side can lend the
/// other lookahead).
struct ZeroCycle {
    std::vector<LatencyEdge> edges;  ///< edges[i].to == edges[i+1].from, closing
    std::string path;                ///< rendered "a -[net kind]-> b -[...]-> a"
};

/// One latency edge crossing a shard boundary in a certified plan.
struct ShardCut {
    LatencyEdge edge;
    unsigned from_shard = 0;
    unsigned to_shard = 0;
};

/// A certified partition of the netlist's components into shards.
struct ShardPlan {
    unsigned requested = 0;  ///< shard count asked for
    bool sound = false;      ///< true: every cut edge has lookahead >= 1
    std::string verdict;     ///< "sound" or the no-safe-cut explanation

    /// Component names per shard (sorted; size == requested when sound).
    std::vector<std::vector<std::string>> shards;
    /// Every latency edge crossing a shard boundary.
    std::vector<ShardCut> cuts;
    /// Minimum lookahead over all cuts (0 when unsound or no cut edges).
    unsigned min_lookahead = 0;

    /// Zero-latency-condensed component groups found before partitioning.
    size_t atom_count = 0;
    /// Zero-latency edges between *distinct* components, deduplicated by
    /// net (one representative edge per net — a fabric link that fans out
    /// to 16 RPUs is one registerization decision, not 16): the exact
    /// call boundaries the kernel refactor must registerize to unlock
    /// finer cuts. blocker_multiplicity[i] counts the writer/reader pairs
    /// collapsed into blockers[i].
    std::vector<LatencyEdge> blockers;
    std::vector<unsigned> blocker_multiplicity;
    /// For a no-safe-cut verdict: the cheapest set of blocker net
    /// *families* (digit runs collapsed — "lb.resp.r#" is one RTL
    /// definition) whose registerization unlocks the requested shard
    /// count, found by backward elimination (start with every blocker
    /// family registered, re-admit any family whose return keeps the
    /// request satisfiable — robust against zero-latency cycles that
    /// stall forward-greedy), rendered "famA + famB"; unlocked_atoms is
    /// the resulting group count. Empty / 0 when the plan is sound or
    /// even registering every family cannot satisfy the request.
    std::string cheapest_registerization;
    size_t unlocked_atoms = 0;
    /// Directed zero-latency cycles (diagnostics; always inside atoms).
    std::vector<ZeroCycle> zero_cycles;
    /// What the certificate rests on — each obligation is discharged
    /// statically by construction or dynamically by the obs cross-check.
    std::vector<std::string> obligations;
};

/// Build the directed inter-component latency graph from the declared
/// nets and ports. Self-edges (writer == reader) are dropped; nets whose
/// writer or reader side is external contribute no edge on that side.
std::vector<LatencyEdge> latency_graph(const sim::Kernel& kernel);

/// Directed cycles in the zero-latency subgraph (one representative cycle
/// per strongly connected component that contains one).
std::vector<ZeroCycle> zero_latency_cycles(const std::vector<LatencyEdge>& edges);

/// Certify a partition of the kernel's components into `shards` shards:
/// condense zero-latency-connected components into atoms, reject (with the
/// limiting paths named) when fewer atoms than shards exist, otherwise
/// weight-balance the atoms greedily. Every cut edge of a sound plan has
/// latency >= 1 by construction.
ShardPlan certify_partition(const sim::Kernel& kernel, unsigned shards);

/// Internal-consistency check used by tests and the config-fuzzer oracle:
/// a sound plan must have exactly `requested` non-empty disjoint shards
/// covering every netlist component, strictly positive lookahead on every
/// cut edge, and a min_lookahead matching the cut list; an unsound plan
/// must carry a non-empty explanatory verdict. Returns true when
/// consistent; otherwise fills `why`.
bool validate_plan(const sim::Kernel& kernel, const ShardPlan& plan,
                   std::string* why = nullptr);

/// Human-readable multi-line report of a plan.
std::string plan_report(const ShardPlan& plan);

/// Machine-readable JSON rendering of a plan (the CI artifact).
std::string plan_json(const ShardPlan& plan);

/// Annotated component-level DOT dump: one cluster per shard, cut edges
/// red with their lookahead bound, zero-latency blocker edges dashed
/// orange, zero-latency-cycle edges crimson.
std::string plan_dot(const sim::Kernel& kernel, const ShardPlan& plan);

}  // namespace rosebud::lint

#endif  // ROSEBUD_LINT_SHARD_H

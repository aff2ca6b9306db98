#include "lint/shard.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "lint/netlist.h"
#include "obs/json.h"

namespace rosebud::lint {

using sim::NetRecord;
using sim::PortRecord;

namespace {

const char*
edge_kind_name(LatencyEdge::Kind k) {
    return k == LatencyEdge::kData ? "data" : "credit";
}

/// Net-family name: digit runs collapsed to '#', so the 16 instances of
/// one RTL definition ("rpu0.link_in".."rpu15.link_in" -> "rpu#.link_in")
/// count as one registerization decision.
std::string
family_name(const std::string& net) {
    std::string out;
    bool in_digits = false;
    for (char c : net) {
        if (c >= '0' && c <= '9') {
            if (!in_digits) out += '#';
            in_digits = true;
        } else {
            out += c;
            in_digits = false;
        }
    }
    return out;
}

std::string
render_hop(const LatencyEdge& e) {
    return e.from + " -[" + e.net + " " + edge_kind_name(e.kind) + "]-> " + e.to;
}

/// Every component the partition must cover: port endpoints plus every
/// registered (ticking) component, including ones with no declared nets.
std::set<std::string>
component_set(const sim::Kernel& kernel) {
    std::set<std::string> nodes;
    for (const PortRecord& p : kernel.ports()) nodes.insert(p.component);
    for (const std::string& c : kernel.tick_order()) nodes.insert(c);
    return nodes;
}

struct UnionFind {
    std::map<std::string, std::string> parent;

    void add(const std::string& x) { parent.emplace(x, x); }
    const std::string& find(const std::string& x) {
        std::string* p = &parent.at(x);
        if (*p == x) return *p;
        const std::string& root = find(*p);
        *p = root;
        return parent.at(x);
    }
    void unite(const std::string& a, const std::string& b) {
        std::string ra = find(a), rb = find(b);
        // Deterministic: the lexicographically smaller name becomes root.
        if (ra == rb) return;
        if (rb < ra) std::swap(ra, rb);
        parent[rb] = ra;
    }
};

}  // namespace

std::vector<LatencyEdge>
latency_graph(const sim::Kernel& kernel) {
    // Writer/reader component sets per net, ordered for determinism.
    // Unknown nets are the structural linter's finding, not ours.
    std::map<std::string, std::pair<std::set<std::string>, std::set<std::string>>> ends;
    for (const PortRecord& p : kernel.ports()) {
        if (!kernel.net_record(kernel.net_id(p.net))) continue;
        auto& e = ends[p.net];
        (p.dir == PortRecord::kWrite ? e.first : e.second).insert(p.component);
    }

    std::vector<LatencyEdge> out;
    for (const auto& [net, wr] : ends) {
        const NetRecord& n = *kernel.net_record(kernel.net_id(net));
        for (const std::string& w : wr.first) {
            for (const std::string& r : wr.second) {
                if (w == r) continue;  // intra-component traffic cannot cross a cut
                LatencyEdge d;
                d.from = w;
                d.to = r;
                d.net = net;
                d.kind = LatencyEdge::kData;
                switch (n.kind) {
                case NetRecord::kFifo:
                    d.latency = 1;
                    d.reason = "registered fifo: a push at cycle T is first "
                               "poppable at T+1";
                    break;
                case NetRecord::kReg:
                    d.latency = 0;
                    d.reason = "polled register: no message stream carries the "
                               "update across a cut";
                    break;
                case NetRecord::kLink:
                    d.latency = 0;
                    d.reason = "direct-call link: the producer runs the consumer "
                               "inside its own tick";
                    break;
                }
                out.push_back(std::move(d));

                // Credit/backpressure is a real reverse influence only on
                // FIFO nets whose writer observes reader-side occupancy.
                if (n.kind != NetRecord::kFifo || n.credit == NetRecord::kCreditNone)
                    continue;
                LatencyEdge c;
                c.from = r;
                c.to = w;
                c.net = net;
                c.kind = LatencyEdge::kCredit;
                if (n.credit == NetRecord::kCreditRegistered) {
                    c.latency = 1;
                    c.reason = "registered credit return: a pop at cycle T is "
                               "first visible to admission at T+1";
                } else {
                    c.latency = 0;
                    c.reason = "skid-buffer credit: admission observes "
                               "same-cycle pops";
                }
                out.push_back(std::move(c));
            }
        }
    }
    return out;
}

std::vector<ZeroCycle>
zero_latency_cycles(const std::vector<LatencyEdge>& edges) {
    // Adjacency over the zero-latency subgraph only.
    std::map<std::string, std::vector<const LatencyEdge*>> adj;
    std::set<std::string> nodes;
    for (const LatencyEdge& e : edges) {
        if (e.latency != 0) continue;
        adj[e.from].push_back(&e);
        nodes.insert(e.from);
        nodes.insert(e.to);
    }
    for (auto& [_, v] : adj) {
        std::sort(v.begin(), v.end(), [](const LatencyEdge* a, const LatencyEdge* b) {
            if (a->to != b->to) return a->to < b->to;
            if (a->net != b->net) return a->net < b->net;
            return a->kind < b->kind;
        });
    }

    // Tarjan SCC over the zero-latency subgraph.
    std::map<std::string, int> index, low;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    std::vector<std::set<std::string>> sccs;
    int next = 0;
    std::function<void(const std::string&)> strongconnect = [&](const std::string& v) {
        index[v] = low[v] = next++;
        stack.push_back(v);
        on_stack.insert(v);
        for (const LatencyEdge* e : adj[v]) {
            if (!index.count(e->to)) {
                strongconnect(e->to);
                low[v] = std::min(low[v], low[e->to]);
            } else if (on_stack.count(e->to)) {
                low[v] = std::min(low[v], index[e->to]);
            }
        }
        if (low[v] == index[v]) {
            std::set<std::string> scc;
            for (;;) {
                std::string w = stack.back();
                stack.pop_back();
                on_stack.erase(w);
                scc.insert(w);
                if (w == v) break;
            }
            if (scc.size() > 1) sccs.push_back(std::move(scc));
        }
    };
    for (const std::string& v : nodes)
        if (!index.count(v)) strongconnect(v);

    // One representative cycle per cyclic SCC: BFS from the smallest
    // member back to itself, restricted to the SCC (shortest, so the
    // report names the tightest offending loop).
    std::vector<ZeroCycle> out;
    for (const auto& scc : sccs) {
        const std::string& rep = *scc.begin();
        std::map<std::string, const LatencyEdge*> via;  // node -> edge we arrived by
        std::deque<std::string> q{rep};
        const LatencyEdge* closing = nullptr;
        std::set<std::string> seen{rep};
        while (!q.empty() && !closing) {
            std::string u = q.front();
            q.pop_front();
            for (const LatencyEdge* e : adj[u]) {
                if (!scc.count(e->to)) continue;
                if (e->to == rep) {
                    closing = e;
                    break;
                }
                if (!seen.insert(e->to).second) continue;
                via[e->to] = e;
                q.push_back(e->to);
            }
        }
        if (!closing) continue;  // unreachable for a true SCC
        std::vector<const LatencyEdge*> chain{closing};
        for (std::string at = closing->from; at != rep; at = chain.back()->from)
            chain.push_back(via.at(at));
        std::reverse(chain.begin(), chain.end());

        ZeroCycle zc;
        std::ostringstream path;
        path << rep;
        for (const LatencyEdge* e : chain) {
            zc.edges.push_back(*e);
            path << " -[" << e->net << " " << edge_kind_name(e->kind) << "]-> "
                 << e->to;
        }
        zc.path = path.str();
        out.push_back(std::move(zc));
    }
    return out;
}

ShardPlan
certify_partition(const sim::Kernel& kernel, unsigned shards) {
    ShardPlan plan;
    plan.requested = shards;

    std::set<std::string> nodes = component_set(kernel);
    std::vector<LatencyEdge> edges = latency_graph(kernel);
    plan.zero_cycles = zero_latency_cycles(edges);

    // Dedupe blockers by net: every writer/reader pair of one
    // combinational net is fixed by the same registerization, so the
    // report names each net once with its collapsed pair count.
    size_t zero_edges = 0;
    {
        std::map<std::string, std::pair<LatencyEdge, unsigned>> by_net;
        for (const LatencyEdge& e : edges) {
            if (e.latency != 0) continue;
            ++zero_edges;
            auto it = by_net.emplace(e.net, std::make_pair(e, 0u)).first;
            it->second.second += 1;
        }
        for (auto& [net, rep] : by_net) {
            plan.blockers.push_back(rep.first);
            plan.blocker_multiplicity.push_back(rep.second);
        }
    }

    // Condense: any zero-latency edge (in either direction) pins its two
    // endpoints into the same shard, so contract them undirected.
    UnionFind uf;
    for (const std::string& n : nodes) uf.add(n);
    for (const LatencyEdge& e : edges)
        if (e.latency == 0) uf.unite(e.from, e.to);

    std::map<std::string, std::vector<std::string>> atoms;
    for (const std::string& n : nodes) atoms[uf.find(n)].push_back(n);
    plan.atom_count = atoms.size();

    if (shards == 0) {
        plan.verdict = "invalid request: a partition needs at least one shard";
        return plan;
    }
    if (atoms.size() < shards) {
        // Cheapest registerization: which set of net families, if their
        // zero-latency edges were registered (made latency >= 1), would
        // unlock enough independent groups? A family (digit runs
        // collapsed — one RTL definition, N instances) is the unit of
        // change a designer actually makes. Greedy forward selection
        // stalls on zero-latency cycles (no single family strictly
        // improves until the whole cycle is registered), so eliminate
        // backward instead: start with every family registered, then
        // re-admit (lexicographically, for determinism) any family whose
        // return keeps the request satisfiable. The survivors are a
        // minimal-by-inclusion registerization set.
        {
            std::set<std::string> chosen;
            for (const LatencyEdge& b : plan.blockers)
                chosen.insert(family_name(b.net));

            auto roots_with = [&](const std::set<std::string>& registered) {
                UnionFind trial;
                for (const std::string& n : nodes) trial.add(n);
                for (const LatencyEdge& e : edges) {
                    if (e.latency != 0) continue;
                    if (registered.count(family_name(e.net))) continue;
                    trial.unite(e.from, e.to);
                }
                std::set<std::string> roots;
                for (const std::string& n : nodes) roots.insert(trial.find(n));
                return roots.size();
            };

            if (roots_with(chosen) >= shards) {
                for (const std::string& fam :
                     std::set<std::string>(chosen)) {
                    std::set<std::string> without = chosen;
                    without.erase(fam);
                    if (roots_with(without) >= shards) chosen = std::move(without);
                }
                plan.unlocked_atoms = roots_with(chosen);
                for (const std::string& fam : chosen) {
                    if (!plan.cheapest_registerization.empty())
                        plan.cheapest_registerization += " + ";
                    plan.cheapest_registerization += fam;
                }
            }
        }

        std::ostringstream os;
        os << "no safe " << shards << "-way cut: the zero-latency condensation "
           << "leaves only " << atoms.size() << " independent component group(s) ("
           << plan.blockers.size() << " zero-latency net(s) spanning "
           << zero_edges << " edge(s) pin components together)";
        if (!plan.zero_cycles.empty()) {
            os << "; limiting zero-latency cycle: " << plan.zero_cycles.front().path;
        } else if (!plan.blockers.empty()) {
            const LatencyEdge& b = plan.blockers.front();
            os << "; e.g. " << render_hop(b) << " (" << b.reason << ")";
        }
        if (plan.unlocked_atoms >= shards) {
            os << "; cheapest registerization: " << plan.cheapest_registerization
               << " -> " << plan.unlocked_atoms << " independent group(s)";
        } else if (!plan.cheapest_registerization.empty()) {
            os << "; best registerization found: " << plan.cheapest_registerization
               << " -> only " << plan.unlocked_atoms << " group(s)";
        } else {
            os << "; no net-family registerization unlocks more groups";
        }
        plan.verdict = os.str();
        return plan;
    }

    // Greedy balance: heaviest atom first onto the lightest shard. With
    // atoms >= shards every shard receives at least one atom.
    std::vector<std::pair<size_t, std::string>> order;
    for (const auto& [root, members] : atoms) order.emplace_back(members.size(), root);
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });

    plan.shards.assign(shards, {});
    std::vector<size_t> load(shards, 0);
    std::map<std::string, unsigned> shard_of;
    for (const auto& [weight, root] : order) {
        unsigned s = unsigned(std::min_element(load.begin(), load.end()) - load.begin());
        for (const std::string& m : atoms.at(root)) {
            plan.shards[s].push_back(m);
            shard_of[m] = s;
        }
        load[s] += weight;
    }
    for (auto& sh : plan.shards) std::sort(sh.begin(), sh.end());

    bool any = false;
    for (const LatencyEdge& e : edges) {
        unsigned fs = shard_of.at(e.from), ts = shard_of.at(e.to);
        if (fs == ts) continue;
        plan.cuts.push_back({e, fs, ts});
        plan.min_lookahead = any ? std::min(plan.min_lookahead, e.latency) : e.latency;
        any = true;
    }
    if (!any) plan.min_lookahead = 0;

    plan.sound = true;
    plan.verdict = "sound";
    for (const ShardCut& c : plan.cuts) {
        if (c.edge.latency == 0) {  // impossible by construction; never certify it
            plan.sound = false;
            plan.verdict = "internal error: zero-latency cut edge " + render_hop(c.edge);
        }
    }

    plan.obligations.push_back(
        "two-phase commit: a push into any cut fifo at cycle T must not be "
        "poppable before T+1 (enforced by the kernel commit phase and the "
        "dynamic race detector)");
    std::set<std::string> credit_nets;
    for (const ShardCut& c : plan.cuts)
        if (c.edge.kind == LatencyEdge::kCredit) credit_nets.insert(c.edge.net);
    for (const std::string& n : credit_nets) {
        plan.obligations.push_back(
            "registered credit on '" + n + "': admission must keep snapshotting "
            "committed+staged occupancy and never observe a same-cycle pop");
    }
    plan.obligations.push_back(
        "dynamic cross-check: obs::ShardLatencyRecorder must never observe a "
        "cross-cut message latency below the certified bound");
    plan.obligations.push_back(
        "re-certification: any declare_net/declare_port after this plan was "
        "issued invalidates it");
    return plan;
}

bool
validate_plan(const sim::Kernel& kernel, const ShardPlan& plan, std::string* why) {
    auto fail = [&](const std::string& msg) {
        if (why) *why = msg;
        return false;
    };
    if (!plan.sound) {
        if (plan.verdict.empty())
            return fail("unsound plan carries no explanatory verdict");
        return true;
    }
    if (plan.requested == 0) return fail("sound plan with zero requested shards");
    if (plan.shards.size() != plan.requested)
        return fail("sound plan has " + std::to_string(plan.shards.size()) +
                    " shards, requested " + std::to_string(plan.requested));

    std::set<std::string> assigned;
    for (const auto& sh : plan.shards) {
        if (sh.empty()) return fail("sound plan contains an empty shard");
        for (const std::string& c : sh)
            if (!assigned.insert(c).second)
                return fail("component '" + c + "' assigned to more than one shard");
    }
    for (const std::string& c : component_set(kernel))
        if (!assigned.count(c))
            return fail("component '" + c + "' is not assigned to any shard");

    unsigned min_la = 0;
    bool any = false;
    for (const ShardCut& c : plan.cuts) {
        if (c.edge.latency == 0)
            return fail("sound plan certifies zero-lookahead cut edge " +
                        render_hop(c.edge));
        if (c.from_shard == c.to_shard)
            return fail("cut edge " + render_hop(c.edge) + " does not cross shards");
        min_la = any ? std::min(min_la, c.edge.latency) : c.edge.latency;
        any = true;
    }
    if (plan.min_lookahead != (any ? min_la : 0))
        return fail("min_lookahead does not match the cut list");
    return true;
}

std::string
plan_report(const ShardPlan& plan) {
    std::ostringstream os;
    os << "shard plan (" << plan.requested << "-way): " << plan.verdict << "\n";
    os << "  atoms " << plan.atom_count << ", zero-latency blocker nets "
       << plan.blockers.size() << ", zero-latency cycles "
       << plan.zero_cycles.size() << "\n";
    // Blockers grouped by net family: one line per RTL definition, not
    // one per instance.
    {
        struct Group { std::string hop; unsigned nets = 0; unsigned pairs = 0; };
        std::map<std::string, Group> fams;
        for (size_t i = 0; i < plan.blockers.size(); ++i) {
            const LatencyEdge& b = plan.blockers[i];
            LatencyEdge rep = b;
            rep.from = family_name(b.from);
            rep.to = family_name(b.to);
            rep.net = family_name(b.net);
            Group& g = fams[rep.net + "\x01" + rep.from + "\x01" + rep.to +
                            char('0' + int(rep.kind))];
            if (g.nets == 0) g.hop = render_hop(rep) + " (" + b.reason + ")";
            g.nets += 1;
            g.pairs += i < plan.blocker_multiplicity.size()
                           ? plan.blocker_multiplicity[i]
                           : 1;
        }
        for (const auto& [key, g] : fams) {
            os << "  blocker: " << g.hop;
            if (g.nets > 1) os << " [x" << g.nets << " nets]";
            if (g.pairs > g.nets) os << " [" << g.pairs << " pairs]";
            os << "\n";
        }
    }
    if (!plan.cheapest_registerization.empty()) {
        os << "  cheapest registerization: " << plan.cheapest_registerization
           << " -> " << plan.unlocked_atoms << " independent group(s)\n";
    }
    for (size_t s = 0; s < plan.shards.size(); ++s) {
        os << "  shard " << s << " (" << plan.shards[s].size() << " components):";
        for (const std::string& c : plan.shards[s]) os << " " << c;
        os << "\n";
    }
    if (plan.sound) {
        os << "  cut edges " << plan.cuts.size() << ", min lookahead "
           << plan.min_lookahead << "\n";
        for (const ShardCut& c : plan.cuts) {
            os << "    [" << c.from_shard << "->" << c.to_shard << "] "
               << render_hop(c.edge) << " lookahead " << c.edge.latency << " ("
               << c.edge.reason << ")\n";
        }
    }
    for (const ZeroCycle& z : plan.zero_cycles)
        os << "  zero-latency cycle: " << z.path << "\n";
    for (const std::string& o : plan.obligations) os << "  obligation: " << o << "\n";
    return os.str();
}

std::string
plan_json(const ShardPlan& plan) {
    obs::JsonWriter w;
    w.begin_object();
    w.key("requested").value(uint64_t(plan.requested));
    w.key("sound").value(plan.sound);
    w.key("verdict").value(plan.verdict);
    w.key("atom_count").value(uint64_t(plan.atom_count));
    w.key("min_lookahead").value(uint64_t(plan.min_lookahead));
    w.key("shards").begin_array();
    for (const auto& sh : plan.shards) {
        w.begin_array();
        for (const std::string& c : sh) w.value(c);
        w.end_array();
    }
    w.end_array();
    auto edge = [&](const LatencyEdge& e) {
        w.key("from").value(e.from);
        w.key("to").value(e.to);
        w.key("net").value(e.net);
        w.key("kind").value(edge_kind_name(e.kind));
        w.key("lookahead").value(uint64_t(e.latency));
        w.key("reason").value(e.reason);
    };
    w.key("cuts").begin_array();
    for (const ShardCut& c : plan.cuts) {
        w.begin_object();
        edge(c.edge);
        w.key("from_shard").value(uint64_t(c.from_shard));
        w.key("to_shard").value(uint64_t(c.to_shard));
        w.end_object();
    }
    w.end_array();
    w.key("blockers").begin_array();
    for (size_t i = 0; i < plan.blockers.size(); ++i) {
        w.begin_object();
        edge(plan.blockers[i]);
        w.key("pairs").value(uint64_t(i < plan.blocker_multiplicity.size()
                                          ? plan.blocker_multiplicity[i]
                                          : 1));
        w.end_object();
    }
    w.end_array();
    w.key("cheapest_registerization").value(plan.cheapest_registerization);
    w.key("unlocked_atoms").value(uint64_t(plan.unlocked_atoms));
    w.key("zero_cycles").begin_array();
    for (const ZeroCycle& z : plan.zero_cycles) {
        w.begin_object();
        w.key("length").value(uint64_t(z.edges.size()));
        w.key("path").value(z.path);
        w.end_object();
    }
    w.end_array();
    w.key("obligations").begin_array();
    for (const std::string& o : plan.obligations) w.value(o);
    w.end_array();
    w.end_object();
    return w.str();
}

std::string
plan_dot(const sim::Kernel& kernel, const ShardPlan& plan) {
    std::ostringstream os;
    os << "digraph shard_plan {\n  rankdir=LR;\n"
       << "  node [fontname=\"monospace\", fontsize=10, shape=box];\n";

    std::map<std::string, unsigned> shard_of;
    for (size_t s = 0; s < plan.shards.size(); ++s)
        for (const std::string& c : plan.shards[s]) shard_of[c] = unsigned(s);

    std::set<std::string> nodes = component_set(kernel);
    if (plan.sound) {
        for (size_t s = 0; s < plan.shards.size(); ++s) {
            os << "  subgraph cluster_shard" << s << " {\n    label=\"shard " << s
               << "\";\n    style=filled;\n    fillcolor=\"#eef4fb\";\n";
            for (const std::string& c : plan.shards[s])
                os << "    \"" << dot_escape(c) << "\";\n";
            os << "  }\n";
        }
    } else {
        for (const std::string& c : nodes) os << "  \"" << dot_escape(c) << "\";\n";
    }

    // Edge categories: cycle members crimson, other zero-latency blockers
    // dashed orange, cut edges red with their bound, in-shard registered
    // edges gray.
    auto key = [](const LatencyEdge& e) {
        return e.from + "\x01" + e.to + "\x01" + e.net + "\x01" +
               char('0' + int(e.kind));
    };
    std::set<std::string> cycle_edges;
    for (const ZeroCycle& z : plan.zero_cycles)
        for (const LatencyEdge& e : z.edges) cycle_edges.insert(key(e));
    std::set<std::string> cut_edges;
    for (const ShardCut& c : plan.cuts) cut_edges.insert(key(c.edge));

    for (const LatencyEdge& e : latency_graph(kernel)) {
        os << "  \"" << dot_escape(e.from) << "\" -> \"" << dot_escape(e.to)
           << "\" [label=\"" << dot_escape(e.net) << "\\n"
           << edge_kind_name(e.kind) << " " << e.latency << "\"";
        if (cut_edges.count(key(e))) {
            os << ", color=red, penwidth=2, fontcolor=red";
        } else if (cycle_edges.count(key(e))) {
            os << ", color=crimson, penwidth=2, style=dashed, fontcolor=crimson";
        } else if (e.latency == 0) {
            os << ", color=orange, style=dashed, fontcolor=orange";
        } else {
            os << ", color=gray50, fontcolor=gray50";
        }
        os << "];\n";
    }
    os << "}\n";
    return os.str();
}

}  // namespace rosebud::lint

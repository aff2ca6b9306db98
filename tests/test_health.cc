/// Production health layer tests (DESIGN.md §15): flight-recorder ring
/// semantics, HDR histogram bucket math, the declarative SLO parser,
/// Prometheus/JSON metrics export, the attach-invariance guarantee
/// (bit-identical fingerprints with the monitor attached), SLO epoch
/// verdicts, the forward-progress watchdog on an injected firmware stall,
/// the host-side metrics query, bounded telemetry epoch retention, and the
/// exporter degenerate-input cases (zero-cycle runs, detach mid-run,
/// hostile net names).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/system.h"
#include "core/tracer.h"
#include "firmware/programs.h"
#include "net/tracegen.h"
#include "obs/harness.h"
#include "obs/health.h"
#include "obs/perfetto.h"
#include "obs/telemetry.h"
#include "obs/vcd.h"
#include "sim/log.h"

namespace rosebud {
namespace {

// ------------------------------------------------------- flight recorder

TEST(FlightRecorder, RingWrapsKeepingMostRecent) {
    obs::FlightRecorder fr(8);
    for (uint64_t i = 0; i < 20; ++i)
        fr.record(obs::FlightEventType::kIngress, /*cycle=*/100 + i, /*a=*/0,
                  /*b=*/64, /*c=*/i);
    EXPECT_EQ(fr.size(), 8u);
    EXPECT_EQ(fr.capacity(), 8u);
    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.overwritten(), 12u);
    // Oldest-first iteration over the surviving window [12, 20).
    uint64_t expect = 12;
    fr.for_each([&](const obs::FlightEvent& e) {
        EXPECT_EQ(e.c, expect);
        EXPECT_EQ(e.cycle, 100 + expect);
        ++expect;
    });
    EXPECT_EQ(expect, 20u);
}

TEST(FlightRecorder, NotesInternAndBound) {
    obs::FlightRecorder fr(4096);
    fr.record_note(obs::FlightEventType::kFault, 7, "core trap mcause=2",
                   /*a=*/3);
    bool seen = false;
    fr.for_each([&](const obs::FlightEvent& e) {
        seen = true;
        EXPECT_EQ(e.type, obs::FlightEventType::kFault);
        EXPECT_EQ(fr.note(e.note), "core trap mcause=2");
    });
    EXPECT_TRUE(seen);
    // The note table is bounded: flooding it must not grow without limit,
    // and later notes still resolve to *something* printable.
    for (int i = 0; i < 5000; ++i)
        fr.record_note(obs::FlightEventType::kFault, 8, "note " + std::to_string(i));
    int32_t last_note = -1;
    fr.for_each([&](const obs::FlightEvent& e) { last_note = e.note; });
    EXPECT_GE(last_note, 0);
    EXPECT_FALSE(fr.note(last_note).empty());
}

TEST(FlightRecorder, DumpFormatsContainEvents) {
    obs::FlightRecorder fr(16);
    fr.record(obs::FlightEventType::kIngress, 10, 0, 64, 1);
    fr.record(obs::FlightEventType::kEgress, 42, 1, 64, 1, /*d=*/32);
    fr.record_note(obs::FlightEventType::kWatchdogTrip, 99, "egress silent");
    std::string json = fr.dump_json();
    std::string text = fr.dump_text();
    EXPECT_NE(json.find("\"events\""), std::string::npos);
    EXPECT_NE(json.find("egress silent"), std::string::npos);
    EXPECT_NE(text.find("ingress"), std::string::npos);
    EXPECT_NE(text.find("egress silent"), std::string::npos);
    fr.clear();
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.capacity(), 16u);
}

// ------------------------------------------------------------- histogram

TEST(Histogram, ExactBelowSubBucketRange) {
    obs::Histogram h;
    for (uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) h.record(v);
    for (uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v)
        EXPECT_EQ(obs::Histogram::bucket_upper(obs::Histogram::bucket_index(v)), v);
    EXPECT_EQ(h.count(), uint64_t(obs::Histogram::kSubBuckets));
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), obs::Histogram::kSubBuckets - 1);
}

TEST(Histogram, BucketBoundsContainValueWithBoundedError) {
    for (uint64_t v : {1ull, 7ull, 8ull, 9ull, 100ull, 1000ull, 123456ull,
                       (1ull << 40) + 12345, ~0ull >> 1}) {
        unsigned idx = obs::Histogram::bucket_index(v);
        uint64_t upper = obs::Histogram::bucket_upper(idx);
        EXPECT_GE(upper, v) << "v=" << v;
        // HDR guarantee: the bucket upper bound overshoots by at most the
        // sub-bucket resolution (12.5% for kSubBits=3).
        EXPECT_LE(double(upper - v), double(v) * 0.125 + 1.0) << "v=" << v;
    }
}

TEST(Histogram, PercentilesNeverUnderstate) {
    obs::Histogram h;
    for (uint64_t i = 1; i <= 1000; ++i) h.record(i);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_GE(h.percentile(0.50), 500u);
    EXPECT_GE(h.percentile(0.99), 990u);
    EXPECT_LE(h.percentile(0.99), 1200u);  // within one bucket overshoot
    EXPECT_GE(h.percentile(1.0), 1000u);
    EXPECT_EQ(obs::Histogram().percentile(0.99), 0u);
}

TEST(Histogram, MergeAndClear) {
    obs::Histogram a, b;
    a.record(10, 5);
    b.record(1000, 3);
    a.merge(b);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_EQ(a.sum(), 10u * 5 + 1000u * 3);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.percentile(0.5), 0u);
}

// ------------------------------------------------------------ SLO parser

TEST(SloParser, ParsesClassesUnitsAndClauses) {
    obs::SloSpec s = obs::parse_slo(
        "latency_p99 <= 200us; drop_rate <= 5%, tcp: latency_p999 <= 1ms");
    ASSERT_EQ(s.bounds.size(), 3u);

    EXPECT_EQ(s.bounds[0].kind, obs::SloBound::Kind::kLatencyP99);
    EXPECT_EQ(s.bounds[0].cls, obs::FlowClass::kClassCount);  // all traffic
    EXPECT_NEAR(s.bounds[0].limit, 200e3 / sim::kNsPerCycle, 1e-6);

    EXPECT_EQ(s.bounds[1].kind, obs::SloBound::Kind::kDropRate);
    EXPECT_NEAR(s.bounds[1].limit, 0.05, 1e-12);

    EXPECT_EQ(s.bounds[2].cls, obs::FlowClass::kTcp);
    EXPECT_EQ(s.bounds[2].kind, obs::SloBound::Kind::kLatencyP999);
    EXPECT_NEAR(s.bounds[2].limit, 1e6 / sim::kNsPerCycle, 1e-6);

    EXPECT_TRUE(obs::parse_slo("").empty());
    EXPECT_TRUE(obs::parse_slo("   ").empty());
    // Canonical rendering mentions the class and metric.
    std::string txt = obs::slo_bound_text(s.bounds[2]);
    EXPECT_NE(txt.find("tcp"), std::string::npos);
    EXPECT_NE(txt.find("latency_p999"), std::string::npos);
}

TEST(SloParser, RejectsMalformedSpecs) {
    EXPECT_THROW(obs::parse_slo("latency_p99 >= 10"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("bogus_metric <= 10"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("latency_p99 <= abc"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("martian: latency_p99 <= 10"), sim::FatalError);
    EXPECT_THROW(obs::parse_slo("latency_p99 <= 10 parsecs"), sim::FatalError);
}

// -------------------------------------------------------------- metrics

TEST(Metrics, PrometheusNamesAndLabelsAreSanitized) {
    EXPECT_EQ(obs::prom_name("fabric.mac_rx.p0"), "fabric_mac_rx_p0");
    EXPECT_EQ(obs::prom_name("9lives"), "_9lives");
    std::string esc = obs::prom_label_value("a\"b\\c\nd");
    EXPECT_EQ(esc.find('\n'), std::string::npos);
    EXPECT_NE(esc.find("\\\""), std::string::npos);
    EXPECT_NE(esc.find("\\\\"), std::string::npos);
}

TEST(Metrics, RegistryExportsPrometheusAndJson) {
    obs::MetricsRegistry reg;
    uint64_t hits = 7;
    reg.add_counter("demo_hits_total", "demo hits", "", [&] { return hits; });
    reg.add_gauge("demo_depth", "queue depth", "net=\"rx\"", [&] { return 3ull; });
    obs::Histogram h;
    h.record(4);
    h.record(100);
    reg.add_histogram("demo_latency_seconds", "latency", "", &h, 1e-6);

    std::string prom = reg.prometheus_text();
    EXPECT_NE(prom.find("# TYPE demo_hits_total counter"), std::string::npos);
    EXPECT_NE(prom.find("demo_hits_total 7"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE demo_depth gauge"), std::string::npos);
    EXPECT_NE(prom.find("demo_depth{net=\"rx\"} 3"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE demo_latency_seconds histogram"), std::string::npos);
    EXPECT_NE(prom.find("demo_latency_seconds_bucket"), std::string::npos);
    EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(prom.find("demo_latency_seconds_count 2"), std::string::npos);

    std::string json = reg.json();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("demo_hits_total"), std::string::npos);
    EXPECT_EQ(reg.snapshot(obs::MetricsFormat::kJson), json);
    EXPECT_EQ(reg.snapshot(obs::MetricsFormat::kPrometheus), prom);
}

// ------------------------------------------------- attach invariance

// The acceptance contract: a run with the health layer attached is
// bit-identical (state fingerprint) to the same run without it.
TEST(HealthMonitor, AttachedRunKeepsFingerprintBitIdentical) {
    auto run = [](bool with_health) {
        obs::PipelineFixture fx = obs::build_pipeline({});
        obs::HealthMonitor mon;
        if (with_health) mon.attach(fx.system());
        obs::add_traffic(fx, {});
        fx.system().run_cycles(20'000);
        uint64_t fp = fx.system().state_fingerprint();
        if (with_health) {
            EXPECT_GT(mon.ingress_packets(), 0u);  // it really observed
            mon.detach();
        }
        return fp;
    };
    EXPECT_EQ(run(false), run(true));
}

// --------------------------------------------------------- healthy run

TEST(HealthMonitor, HealthyRunAccountsAndPassesLenientSlo) {
    obs::PipelineFixture fx = obs::build_pipeline({});
    obs::HealthConfig hc;
    hc.epoch_cycles = 4096;
    hc.slo = obs::parse_slo("latency_p99 <= 10ms, drop_rate <= 0.99");
    obs::HealthMonitor mon(hc);
    mon.attach(fx.system());
    obs::add_traffic(fx, {});
    fx.system().run_cycles(20'000);
    mon.flush_epoch();

    EXPECT_GT(mon.ingress_packets(), 100u);
    EXPECT_GT(mon.egress_packets(), 100u);
    EXPECT_GT(mon.egress_bytes(), mon.egress_packets() * 60);
    EXPECT_GT(mon.latency().count(), 0u);
    EXPECT_GT(mon.latency().percentile(0.5), 0u);
    EXPECT_GE(mon.epochs_closed(), 4u);
    EXPECT_EQ(mon.watchdog_trips(), 0u);
    EXPECT_TRUE(mon.slo_ok());
    for (const auto& v : mon.verdicts()) {
        EXPECT_TRUE(v.pass);
        EXPECT_EQ(v.violations, 0u);
        EXPECT_GT(v.end, v.start);
    }

    obs::HealthMonitor::Dump d = mon.dump();
    EXPECT_NE(d.text.find("slo:"), std::string::npos);
    EXPECT_EQ(d.json.front(), '{');
    EXPECT_NE(d.json.find("\"recorder\""), std::string::npos);
    mon.detach();
    EXPECT_FALSE(mon.attached());
}

TEST(HealthMonitor, ImpossibleSloProducesFailedVerdicts) {
    obs::PipelineFixture fx = obs::build_pipeline({});
    obs::HealthConfig hc;
    hc.epoch_cycles = 4096;
    hc.slo = obs::parse_slo("latency_p99 <= 1c");
    obs::HealthMonitor mon(hc);
    mon.attach(fx.system());
    obs::add_traffic(fx, {});
    fx.system().run_cycles(20'000);
    mon.flush_epoch();

    EXPECT_FALSE(mon.slo_ok());
    EXPECT_GT(mon.slo_violations(), 0u);
    bool saw_fail = false;
    for (const auto& v : mon.verdicts()) {
        if (!v.pass) {
            saw_fail = true;
            EXPECT_NE(v.violations & 1u, 0u);  // bound 0 violated
        }
    }
    EXPECT_TRUE(saw_fail);
    mon.detach();
}

// ------------------------------------------------------------- watchdog

// Injected stall: hot-swap a busy-looping image onto one RPU mid-run. The
// per-component liveness watchdog must trip, name the component, and point
// at the deepest-backlog net.
TEST(HealthMonitor, WatchdogTripsOnInjectedFirmwareStall) {
    obs::HealthSpec spec;
    spec.packet_sizes = {512};
    spec.run_cycles = 30'000;
    spec.inject_stall = true;
    spec.stall_rpu = 1;
    spec.stall_at = 5'000;
    spec.health.watchdog.component_timeout = 8'000;
    obs::HealthResult r = obs::run_health(spec);

    EXPECT_TRUE(r.watchdog_tripped);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_TRUE(r.rows[0].tripped);
    EXPECT_NE(r.trip_summary.find("rpu1"), std::string::npos);
    EXPECT_NE(r.trip_summary.find("deepest="), std::string::npos);
    // The flight dump carries the trip and the stall attribution.
    EXPECT_NE(r.flight_text.find("WATCHDOG TRIP"), std::string::npos);
    EXPECT_NE(r.flight_json.find("watchdog_trip"), std::string::npos);
}

TEST(HealthMonitor, HealthySweepDoesNotTrip) {
    obs::HealthSpec spec;
    spec.packet_sizes = {512};
    spec.run_cycles = 20'000;
    spec.slo = "latency_p99 <= 10ms, drop_rate <= 0.99";
    obs::HealthResult r = obs::run_health(spec);
    EXPECT_FALSE(r.watchdog_tripped);
    EXPECT_TRUE(r.slo_ok);
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_GT(r.rows[0].gbps, 0.0);
    EXPECT_FALSE(r.metrics_prom.empty());
    EXPECT_NE(r.metrics_prom.find("rosebud_health_ingress_packets_total"),
              std::string::npos);
}

// ------------------------------------------------- timed-sleep invariance

// At low load the kernel jumps over the idle spans between frames (the
// sources sleep on timers). Epoch boundaries and watchdog checks are keyed
// to cycles, so a jump must stop at the monitor's next deadline: with timed
// sleep on or off, every verdict, trip and recorded event is identical.
TEST(HealthMonitor, TimedSleepLeavesEpochsWatchdogAndRecorderUnchanged) {
    struct Outcome {
        std::vector<obs::EpochVerdict> verdicts;
        std::vector<uint64_t> trip_cycles;
        std::vector<std::string> trip_text;
        std::string recorder_text, recorder_json, dump_text, dump_json;
        uint64_t jumped = 0;
    };
    // Trip snapshots also report how many components the kernel is ticking
    // ("awake=N"): host-kernel state, which differs by design (the sources
    // tick every cycle with timed sleep off). Everything else must match.
    auto mask_awake = [](std::string s) {
        for (size_t at = s.find("awake="); at != std::string::npos;
             at = s.find("awake=", at + 1)) {
            size_t end = at + 6;
            while (end < s.size() && s[end] >= '0' && s[end] <= '9') ++end;
            s.replace(at + 6, end - at - 6, "N");
        }
        return s;
    };
    auto run = [&](bool timed) {
        SystemConfig cfg;
        cfg.rpu_count = 16;
        System sys(cfg);
        sys.kernel().set_timed_sleep(timed);
        auto fw = fwlib::forwarder();
        sys.host().load_firmware_all(fw.image, fw.entry);
        sys.host().boot_all();
        sys.run_cycles(500);

        obs::HealthConfig hc;
        hc.epoch_cycles = 3000;  // several epochs per sleep-heavy stretch
        // One bound holds and one fails, so verdicts carry violation notes.
        hc.slo = obs::parse_slo("latency_p99 <= 10ms, latency_p50 <= 100c");
        // A forwarded frame spends ~230 cycles in flight: a tight progress
        // timeout trips on odd-interval checks inside those windows.
        hc.watchdog.check_interval = 97;
        hc.watchdog.progress_timeout = 150;
        obs::HealthMonitor mon(hc);
        mon.attach(sys);
        for (unsigned port = 0; port < 2; ++port) {
            net::TrafficSpec tspec;
            tspec.packet_size = 256;
            tspec.seed = 23 + port;
            auto gen = std::make_shared<net::TraceGenerator>(tspec, nullptr, nullptr);
            sys.add_source({.port = port, .line_gbps = 100.0, .load = 0.005},
                           [gen] { return gen->next(); });
        }
        const uint64_t ff0 = sys.kernel().fast_forwarded_cycles();
        sys.run_cycles(60'000);
        mon.flush_epoch();

        Outcome o;
        o.verdicts = mon.verdicts();
        for (const obs::WatchdogTrip& t : mon.trips()) {
            o.trip_cycles.push_back(t.cycle);
            o.trip_text.push_back(t.what + "|" + t.component + "|" + t.deepest_net +
                                  "|" + mask_awake(t.snapshot));
        }
        o.recorder_text = mon.recorder().dump_text();
        o.recorder_json = mon.recorder().dump_json();
        const obs::HealthMonitor::Dump d = mon.dump();
        o.dump_text = mask_awake(d.text);
        o.dump_json = mask_awake(d.json);
        o.jumped = sys.kernel().fast_forwarded_cycles() - ff0;
        mon.detach();
        return o;
    };
    const Outcome on = run(true);
    const Outcome off = run(false);

    EXPECT_GT(on.jumped, 20'000u);  // the regime under test
    EXPECT_EQ(off.jumped, 0u);
    ASSERT_GE(on.verdicts.size(), 15u);
    ASSERT_EQ(on.verdicts.size(), off.verdicts.size());
    bool saw_fail = false;
    for (size_t i = 0; i < on.verdicts.size(); ++i) {
        SCOPED_TRACE(i);
        const obs::EpochVerdict& a = on.verdicts[i];
        const obs::EpochVerdict& b = off.verdicts[i];
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.end, b.end);
        EXPECT_EQ(a.offered, b.offered);
        EXPECT_EQ(a.egress, b.egress);
        EXPECT_EQ(a.drops, b.drops);
        EXPECT_EQ(a.p50, b.p50);
        EXPECT_EQ(a.p99, b.p99);
        EXPECT_EQ(a.p999, b.p999);
        EXPECT_EQ(a.violations, b.violations);
        EXPECT_EQ(a.pass, b.pass);
        saw_fail = saw_fail || !a.pass;
    }
    EXPECT_TRUE(saw_fail);
    EXPECT_FALSE(on.trip_cycles.empty());
    EXPECT_EQ(on.trip_cycles, off.trip_cycles);
    EXPECT_EQ(on.trip_text, off.trip_text);
    EXPECT_EQ(on.recorder_text, off.recorder_text);
    EXPECT_EQ(on.recorder_json, off.recorder_json);
    EXPECT_EQ(on.dump_text, off.dump_text);
    EXPECT_EQ(on.dump_json, off.dump_json);
}

// ------------------------------------------------------ host-side query

TEST(HealthMonitor, HostMetricsSnapshotQuery) {
    obs::PipelineFixture fx = obs::build_pipeline({});
    EXPECT_FALSE(fx.system().host().has_metrics_provider());
    EXPECT_TRUE(fx.system().host().metrics_snapshot().empty());

    obs::HealthMonitor mon;
    mon.attach(fx.system());
    obs::add_traffic(fx, {});
    fx.system().run_cycles(10'000);

    EXPECT_TRUE(fx.system().host().has_metrics_provider());
    std::string prom = fx.system().host().metrics_snapshot();
    EXPECT_NE(prom.find("rosebud_health_ingress_packets_total"), std::string::npos);
    EXPECT_NE(prom.find("rosebud_packet_latency_seconds"), std::string::npos);
    std::string json =
        fx.system().host().metrics_snapshot(host::MetricsFormat::kJson);
    EXPECT_EQ(json.front(), '{');

    mon.detach();
    EXPECT_FALSE(fx.system().host().has_metrics_provider());
    EXPECT_TRUE(fx.system().host().metrics_snapshot().empty());
}

// ------------------------------------- telemetry bounded epoch retention

TEST(Telemetry, MaxEpochsCoarsensButConserves) {
    obs::PipelineFixture fx = obs::build_pipeline({});
    obs::Telemetry::Config tc;
    tc.epoch_cycles = 500;
    tc.max_epochs = 4;
    obs::Telemetry telem(tc);
    telem.attach(fx.system());
    obs::add_traffic(fx, {});
    fx.system().run_cycles(20'000);
    telem.detach();

    const auto& epochs = telem.epochs();
    ASSERT_FALSE(epochs.empty());
    EXPECT_LE(epochs.size(), tc.max_epochs);
    // Conservation: the merged series still spans every base epoch, in
    // order, with power-of-two spans and sane fractions.
    uint64_t total_span = 0;
    uint64_t prev_end = 0;
    for (const auto& e : epochs) {
        EXPECT_GT(e.span, 0u);
        EXPECT_GT(e.end_cycle, prev_end);
        prev_end = e.end_cycle;
        total_span += e.span;
        for (const auto& [name, f] : e.busy_frac) {
            EXPECT_GE(f, 0.0) << name;
            EXPECT_LE(f, 1.0) << name;
        }
    }
    // 20k cycles / 500-cycle epochs = 40 base epochs, all accounted for.
    EXPECT_GE(total_span, 32u);
}

// ------------------------------------------- exporter degenerate inputs

TEST(Exporters, ZeroCycleRunProducesValidDocuments) {
    obs::PipelineFixture fx = obs::build_pipeline({});
    PacketTracer tracer;
    tracer.attach(fx.system());
    obs::Telemetry telem;
    telem.attach(fx.system());
    // No cycles at all: exporters must still emit well-formed documents.
    telem.detach();
    std::string trace = obs::trace_json(tracer, &telem);
    EXPECT_NE(trace.find("traceEvents"), std::string::npos);
    obs::VcdWriter vcd;
    std::string dump = vcd.str();
    EXPECT_NE(dump.find("$enddefinitions"), std::string::npos);
}

TEST(Exporters, DetachMidRunThenKeepSimulating) {
    obs::PipelineFixture fx = obs::build_pipeline({});
    obs::Telemetry::Config tc;
    tc.epoch_cycles = 1024;
    tc.capture_vcd = true;
    obs::Telemetry telem(tc);
    telem.attach(fx.system());
    obs::add_traffic(fx, {});
    fx.system().run_cycles(5'000);
    telem.detach();
    // The system must keep running untouched after the detach, and the
    // telemetry captured so far must still export.
    fx.system().run_cycles(5'000);
    EXPECT_FALSE(telem.epochs().empty());
    std::string dump = telem.vcd().str();
    EXPECT_NE(dump.find("$enddefinitions"), std::string::npos);
}

TEST(Exporters, HostileNetNamesAreSanitizedInVcd) {
    obs::VcdWriter vcd;
    int a = vcd.add_signal("evil name.with$dollar", 1);
    int b = vcd.add_signal("9starts.digit", 4);
    int c = vcd.add_signal("..empty", 1);
    vcd.change(0, a, 1);
    vcd.change(0, b, 5);
    vcd.change(0, c, 0);
    std::string dump = vcd.str();
    EXPECT_NE(dump.find("$scope module evil_name $end"), std::string::npos);
    EXPECT_NE(dump.find("with_dollar"), std::string::npos);
    EXPECT_NE(dump.find("$scope module _9starts $end"), std::string::npos);
    EXPECT_NE(dump.find("$var wire 4"), std::string::npos);
    EXPECT_NE(dump.find(" digit "), std::string::npos);
    // Empty path segments become "_" rather than corrupting declarations.
    EXPECT_NE(dump.find("$scope module _ $end"), std::string::npos);
    // No raw '$' may survive inside an identifier (every '$' is a keyword).
    for (size_t pos = dump.find('$'); pos != std::string::npos;
         pos = dump.find('$', pos + 1)) {
        static const char* kw[] = {"$date", "$version", "$timescale", "$scope",
                                   "$upscope", "$var", "$enddefinitions",
                                   "$dumpvars", "$end"};
        bool is_kw = false;
        for (const char* k : kw)
            if (dump.compare(pos, std::string(k).size(), k) == 0) is_kw = true;
        EXPECT_TRUE(is_kw) << "stray '$' at offset " << pos;
    }
}

}  // namespace
}  // namespace rosebud

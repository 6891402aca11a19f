/**
 * @file
 * Versioned substrate performance tracker.
 *
 * Measures the rates the paper-reproduction sweeps depend on — raw
 * event-queue throughput, the flow-churn workload's end-to-end event
 * rate, and end-to-end campaign-point time — and writes them to a
 * JSON file (default BENCH_substrate.json, or argv[1]) so successive
 * commits can be compared:
 *
 *   {
 *     "schema_version": 3,
 *     "events_per_sec": ...,        // event queue schedule+dispatch rate
 *     "sim_ns_per_wall_ms": ...,    // simulated ns advanced per wall ms
 *     "hw_threads": ...,            // hardware concurrency at run time
 *     "churn_events_per_sec": ...,  // one flow-churn run, events/wall s
 *     "campaign_points": [ {label, wall_ms, throughput_mbps}, ... ],
 *     "total_wall_ms": ...,
 *     "history": [ {label, when, events_per_sec,
 *                   churn_events_per_sec}, ... ]
 *   }
 *
 * The history array is carried forward unchanged from any existing
 * file at the output path and a row for this run is appended —
 * regression tracking without external tooling. Rows written by
 * schema 2 keep their churn_lanes1_eps/churn_best_eps/speedup fields.
 * Everything else is overwritten.
 *
 * The binary re-reads the file after writing and exits nonzero if it is
 * missing, empty, or does not round-trip.
 *
 * NA_BENCH_FAST=1 shrinks the workload for CI smoke use; numbers are
 * then only good for validating the pipeline, not for comparisons, so
 * a fast run rewrites the snapshot but appends no history row (the
 * carried-forward history stays exactly as it was).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign.hh"
#include "src/core/env.hh"
#include "src/core/sweep.hh"
#include "src/core/system.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/logging.hh"

using namespace na;
using Clock = std::chrono::steady_clock;

namespace {

double
wallMsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Pooled-lambda schedule+dispatch rate through the event queue. */
double
measureEventRate(std::uint64_t events)
{
    sim::EventQueue eq;
    std::uint64_t n = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < events; ++i) {
        eq.scheduleLambda(eq.now() + 10, "bench", [&n] { ++n; });
        eq.runOne();
    }
    const double ms = wallMsSince(start);
    if (n != events || ms <= 0.0)
        return 0.0;
    return static_cast<double>(events) / (ms / 1000.0);
}

struct PointTiming
{
    std::string label;
    double wallMs = 0;
    double throughputMbps = 0;
    double simNs = 0;
};

/** The ext_flows-style churn config the churn rate is measured on. */
core::SystemConfig
churnConfig(bool fast)
{
    core::SystemConfig cfg;
    cfg.numConnections = fast ? 2 : 4;
    cfg.platform.numCpus = 2;
    workload::FlowMixConfig mix;
    mix.maxConcurrentFlows = 32;
    mix.flowSizeMin = 512;
    mix.flowSizeMax = 32 * 1024;
    mix.flowSizeShape = 1.2;
    mix.meanInterarrivalTicks = 30'000; // 15 us: brisk churn
    mix.listenBacklog = 256;
    cfg.workload = mix;
    return cfg;
}

/** One churn run; @return events processed per wall second (0 when
 *  the run produced no events). */
double
measureChurnRate(bool fast)
{
    core::RunSchedule sched;
    sched.warmup = fast ? 2'000'000 : 10'000'000;
    sched.measure = fast ? 20'000'000 : 100'000'000;

    core::System sys(churnConfig(fast));
    const auto start = Clock::now();
    (void)core::Experiment::measure(sys, sched);
    const double ms = wallMsSince(start);
    const std::uint64_t events = sys.eventQueue().processedCount();
    if (events == 0 || ms <= 0.0)
        return 0.0;
    return static_cast<double>(events) / (ms / 1000.0);
}

/**
 * Carve the inner text of the "history" array out of a previous
 * output file so this run's row can be appended to it. Returns the
 * raw row text (possibly empty) — rows are opaque; only the array
 * brackets are parsed.
 */
std::string
priorHistoryRows(const char *path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const std::size_t key = text.find("\"history\"");
    if (key == std::string::npos)
        return {};
    const std::size_t open = text.find('[', key);
    if (open == std::string::npos)
        return {};
    int depth = 0;
    for (std::size_t i = open; i < text.size(); ++i) {
        if (text[i] == '[')
            ++depth;
        else if (text[i] == ']' && --depth == 0) {
            std::string inner = text.substr(open + 1, i - open - 1);
            // Trim whitespace-only content to empty.
            if (inner.find_first_not_of(" \t\r\n") == std::string::npos)
                return {};
            // Trim edges so re-emission stays stable across runs.
            while (!inner.empty() &&
                   (inner.back() == '\n' || inner.back() == ' '))
                inner.pop_back();
            const std::size_t first =
                inner.find_first_not_of(" \t\r\n");
            if (first != std::string::npos)
                inner.erase(0, first);
            return inner;
        }
    }
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    const bool fast = core::env::flag("NA_BENCH_FAST");
    const char *path = argc > 1 ? argv[1] : "BENCH_substrate.json";
    const unsigned hw_threads = std::thread::hardware_concurrency();

    // --- Event queue rate -------------------------------------------
    const std::uint64_t events = fast ? 200'000 : 2'000'000;
    const double events_per_sec = measureEventRate(events);
    if (events_per_sec <= 0.0) {
        std::fprintf(stderr, "substrate_perf: event rate measurement "
                             "failed\n");
        return 1;
    }

    // --- Churn workload event rate ---------------------------------
    const double churn_eps = measureChurnRate(fast);
    if (churn_eps <= 0.0) {
        std::fprintf(stderr, "substrate_perf: churn run produced no "
                             "events\n");
        return 1;
    }

    // --- End-to-end campaign points ---------------------------------
    core::SystemConfig base;
    base.numConnections = fast ? 1 : 2;
    core::RunSchedule schedule;
    schedule.warmup = fast ? 1'000'000 : 4'000'000;
    schedule.measure = fast ? 4'000'000 : 20'000'000;

    const std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(schedule)
            .sizes(fast ? std::vector<std::uint32_t>{4096}
                        : std::vector<std::uint32_t>{128, 4096, 65536})
            .affinities({core::AffinityMode::None,
                         core::AffinityMode::Full})
            .build();

    core::Campaign::Options opts;
    opts.numThreads = 1;

    std::vector<PointTiming> timings;
    double total_wall_ms = 0;
    double total_sim_ns = 0;
    for (const core::CampaignPoint &pt : points) {
        const auto start = Clock::now();
        const core::ResultSet rs = core::Campaign::run({pt}, opts);
        PointTiming t;
        t.label = pt.label;
        t.wallMs = wallMsSince(start);
        t.throughputMbps = rs.result(0).throughputMbps;
        const double freq = pt.config.platform.freqHz;
        t.simNs = static_cast<double>(pt.schedule.warmup +
                                      pt.schedule.measure) /
                  freq * 1e9;
        if (t.wallMs <= 0.0 || rs.result(0).payloadBytes == 0) {
            std::fprintf(stderr,
                         "substrate_perf: point '%s' produced no "
                         "data\n",
                         t.label.c_str());
            return 1;
        }
        total_wall_ms += t.wallMs;
        total_sim_ns += t.simNs;
        timings.push_back(std::move(t));
    }
    const double sim_ns_per_wall_ms = total_sim_ns / total_wall_ms;

    // --- Emit + self-validate ---------------------------------------
    const std::string prior = priorHistoryRows(path);
    std::string run_label =
        core::env::str("NA_BENCH_LABEL").value_or("");
    if (run_label.empty())
        run_label = "full";

    std::ostringstream json;
    char buf[320];
    json << "{\n  \"schema_version\": 3,\n";
    std::snprintf(buf, sizeof buf, "  \"events_per_sec\": %.1f,\n",
                  events_per_sec);
    json << buf;
    std::snprintf(buf, sizeof buf,
                  "  \"sim_ns_per_wall_ms\": %.1f,\n",
                  sim_ns_per_wall_ms);
    json << buf;
    std::snprintf(buf, sizeof buf, "  \"hw_threads\": %u,\n",
                  hw_threads);
    json << buf;
    std::snprintf(buf, sizeof buf,
                  "  \"churn_events_per_sec\": %.1f,\n", churn_eps);
    json << buf;
    json << "  \"campaign_points\": [\n";
    for (std::size_t i = 0; i < timings.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "    {\"label\": \"%s\", \"wall_ms\": %.2f, "
                      "\"throughput_mbps\": %.2f}%s\n",
                      timings[i].label.c_str(), timings[i].wallMs,
                      timings[i].throughputMbps,
                      i + 1 < timings.size() ? "," : "");
        json << buf;
    }
    json << "  ],\n";
    std::snprintf(buf, sizeof buf, "  \"total_wall_ms\": %.2f,\n",
                  total_wall_ms);
    json << buf;
    json << "  \"history\": [\n";
    if (!prior.empty())
        json << "    " << prior << (fast ? "\n" : ",\n");
    if (!fast) {
        std::snprintf(buf, sizeof buf,
                      "    {\"label\": \"%s\", \"when\": %lld, "
                      "\"events_per_sec\": %.1f, "
                      "\"churn_events_per_sec\": %.1f}\n",
                      run_label.c_str(),
                      static_cast<long long>(std::time(nullptr)),
                      events_per_sec, churn_eps);
        json << buf;
    }
    json << "  ]\n}\n";
    const std::string payload = json.str();

    {
        std::ofstream out(path, std::ios::trunc);
        if (!out) {
            std::fprintf(stderr, "substrate_perf: cannot open %s\n",
                         path);
            return 1;
        }
        out << payload;
    }
    std::ifstream in(path);
    std::stringstream readback;
    readback << in.rdbuf();
    if (readback.str().empty() || readback.str() != payload ||
        payload.find("\"schema_version\": 3") == std::string::npos ||
        payload.find("\"churn_events_per_sec\"") == std::string::npos) {
        std::fprintf(stderr,
                     "substrate_perf: %s is empty or malformed\n",
                     path);
        return 1;
    }

    std::printf("substrate_perf: %.0f events/s, %.0f sim-ns/wall-ms, "
                "churn %.0f ev/s (%u hw threads), %zu points in %.0f ms "
                "-> %s\n",
                events_per_sec, sim_ns_per_wall_ms, churn_eps, hw_threads,
                timings.size(), total_wall_ms, path);
    return 0;
}

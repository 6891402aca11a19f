/**
 * @file
 * Simulator benchmark driver: one workload per process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--expect-digest HEX] [--span-file PATH]
 *
 * Repeats the workload's batch of campaign points, each repetition a
 * core::Campaign::run with its own campaign seed, until S seconds of
 * host time have passed, and checks every result. The last line of
 * standard output is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
 * ones; with --trace 1 half the time is spent untraced, the same
 * repetitions are then re-run traced (traced.cc), and the metrics are
 * the per-layer ones. README.md defines every metric.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "perfbench/bench.hh"
#include "src/core/point_key.hh"
#include "src/core/results_jsonl.hh"
#include "src/core/sweep.hh"
#include "src/sim/logging.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using namespace na;

namespace {

/** One benchmark workload: a batch of campaign points. */
struct Workload
{
    std::string name;
    /** Builds the batch (campaign seeds are applied by the caller). */
    std::vector<core::CampaignPoint> (*build)();
};

/**
 * Worker threads: fixed, never more than the host has. Two, not one per
 * hardware thread: with every hardware thread busy, the workers contend
 * with each other for caches and memory, and any other process on the
 * host has to preempt one of them, which made the wall times (the tail
 * most) move from run to run.
 */
constexpr int benchThreads = 2;

std::vector<core::CampaignPoint>
ttcpGrid(std::uint32_t bytes)
{
    return core::SweepBuilder()
        .modes({workload::TtcpMode::Transmit, workload::TtcpMode::Receive})
        .size(bytes)
        .affinities({core::AffinityMode::None, core::AffinityMode::Full})
        .build();
}

std::vector<core::CampaignPoint>
ttcpBulk()
{
    return ttcpGrid(65536);
}

std::vector<core::CampaignPoint>
ttcpSmall()
{
    return ttcpGrid(128);
}

std::vector<core::CampaignPoint>
flowChurn()
{
    std::vector<core::CampaignPoint> points;
    for (net::SteeringKind kind :
         {net::SteeringKind::Rss, net::SteeringKind::FlowDirector}) {
        core::CampaignPoint p;
        p.config.platform.numCpus = 2;
        p.config.numConnections = 4;
        workload::FlowMixConfig mix;
        mix.meanInterarrivalTicks = 30'000; // 15 us at 2 GHz
        mix.flowSizeMin = 512;
        mix.flowSizeMax = 32 * 1024;
        mix.flowSizeShape = 1.2;
        mix.maxConcurrentFlows = 32;
        mix.senderHopTicks = 2'000'000; // 1 ms
        p.config.workload = mix;
        p.config.steering.kind = kind;
        p.config.steering.numQueues = 2;
        p.label = sim::format(
            "churn %s", std::string(net::steeringKindName(kind)).c_str());
        points.push_back(std::move(p));
    }
    return points;
}

const Workload workloads[] = {
    {"ttcp_bulk", ttcpBulk},
    {"ttcp_small", ttcpSmall},
    {"flow_churn", flowChurn},
};

/** @return the workload named @p name, or nullptr. */
const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** CPU time of the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/**
 * Reorder a campaign's JSONL stream (written in completion order) into
 * submission order. @return false when a point has no record or a
 * record belongs to no point.
 */
bool
submissionOrder(const std::string &path,
                const std::vector<core::CampaignPoint> &points,
                std::string &out)
{
    const std::vector<std::uint64_t> keys = core::Campaign::pointKeys(points);
    const core::JsonlFile parsed = core::readResultsJsonlFile(path);
    std::istringstream raw(readFile(path));
    std::unordered_map<std::uint64_t, std::string> lines;
    std::string line;
    for (const core::JsonlRecord &rec : parsed.records) {
        if (!std::getline(raw, line) || !lines.emplace(rec.key, line).second)
            return false;
    }
    if (lines.size() != keys.size())
        return false;
    out.clear();
    for (std::uint64_t key : keys) {
        const auto it = lines.find(key);
        if (it == lines.end())
            return false;
        out += it->second;
        out += '\n';
    }
    return true;
}

/**
 * The cheap conservation checks every result must pass: the per-bin
 * rows sum to the overall row, no CPU is more than fully busy, and the
 * sinks received data.
 */
bool
conserved(const core::RunResult &r)
{
    if (r.failed || r.payloadBytes == 0 || r.cpuUtil > 1.0)
        return false;
    for (double u : r.utilPerCpu) {
        if (u > 1.0)
            return false;
    }
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    for (const core::BinMetrics &b : r.bins) {
        cycles += b.cycles;
        instructions += b.instructions;
    }
    return cycles == r.overall.cycles &&
           instructions == r.overall.instructions;
}

/** Host-side measurements of one repetition. */
struct RepMeasure
{
    RepStream stream;
    double setupS = 0;
    double sweepS = 0;
    /** Wall time of each point in submission order; -1 if it failed. */
    std::vector<double> pointMs;
    double pointSecondsSum = 0;
    /** Worker-thread CPU seconds of the same points (no stolen time). */
    double pointCpuSecondsSum = 0;
    double instructions = 0;
    double poolIdleShare = 0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
};

RepMeasure
runRep(const Workload &wl, std::uint64_t campaign_seed, int threads,
       const std::string &jsonl_path)
{
    std::filesystem::remove(jsonl_path);
    RepMeasure m;
    const Clock::time_point t0 = Clock::now();
    std::vector<core::CampaignPoint> points = wl.build();
    const std::size_t n = points.size();
    std::vector<Clock::time_point> built(n, Clock::time_point::max()), done(n);
    std::vector<double> cpu(n);

    core::Campaign::Options o;
    o.numThreads = threads;
    o.seed = campaign_seed;
    o.derivePointSeeds = true;
    // No retries: a retry would re-run the point on another seed and
    // hide the failure, so an attempt that throws is a failed point.
    o.maxAttempts = 1;
    o.jsonlPath = jsonl_path;
    o.systemHook = [&](core::System &, const core::CampaignPoint &,
                       std::size_t i) {
        built[i] = Clock::now();
        cpu[i] = threadCpuSeconds();
    };
    o.resultHook = [&](core::System &, const core::CampaignPoint &,
                       std::size_t i, core::RunResult &) {
        done[i] = Clock::now();
        cpu[i] = threadCpuSeconds() - cpu[i];
    };
    const core::ResultSet rs = core::Campaign::run(std::move(points), o);
    const Clock::time_point t1 = Clock::now();

    m.sweepS = seconds(t1 - t0);
    m.setupS = seconds(*std::min_element(built.begin(), built.end()) - t0);
    m.attempted = n;
    m.pointMs.assign(n, -1.0);
    for (std::size_t i = 0; i < n; ++i) {
        const core::RunResult &r = rs.result(i);
        if (!conserved(r)) {
            std::printf("check failed: %s: %s\n", rs.point(i).label.c_str(),
                        r.failed ? r.failure.reason.c_str()
                                 : "conservation violated");
            ++m.failed;
            continue;
        }
        const double s = seconds(done[i] - built[i]);
        m.pointMs[i] = 1e3 * s;
        m.pointSecondsSum += s;
        m.pointCpuSecondsSum += cpu[i];
        m.instructions += static_cast<double>(r.overall.instructions);
    }
    m.poolIdleShare =
        1.0 - m.pointSecondsSum / (rs.threadsUsed * m.sweepS);

    m.stream.campaignSeed = campaign_seed;
    for (std::size_t i = 0; i < n; ++i)
        m.stream.points.push_back(rs.point(i));
    if (!submissionOrder(jsonl_path, m.stream.points, m.stream.text)) {
        std::printf("check failed: JSONL stream of seed %llu does not "
                    "hold one record per point\n",
                    static_cast<unsigned long long>(campaign_seed));
        m.failed = n;
    }
    std::filesystem::remove(jsonl_path);
    return m;
}

/**
 * Resume check: a campaign resumed from a complete stream runs no
 * point and re-emits the stream unchanged.
 */
bool
resumeReproduces(const Workload &wl, const RepStream &rep, int threads,
                 const std::string &dir)
{
    const std::string src = dir + "/resume-src.jsonl";
    const std::string out = dir + "/resume-out.jsonl";
    std::filesystem::remove(out);
    std::ofstream(src, std::ios::binary | std::ios::trunc) << rep.text;

    core::Campaign::Options o;
    o.numThreads = threads;
    o.seed = rep.campaignSeed;
    o.derivePointSeeds = true;
    o.maxAttempts = 1;
    o.resumeFrom = src;
    o.jsonlPath = out;
    std::size_t executed = 0;
    std::mutex mu;
    o.progressHook = [&](const core::Campaign::Progress &) {
        std::lock_guard<std::mutex> g(mu);
        ++executed;
    };
    core::Campaign::run(wl.build(), o);
    const bool ok = executed == 0 && readFile(out) == rep.text;
    std::filesystem::remove(src);
    std::filesystem::remove(out);
    return ok;
}

/** The highest percentile with at least ten samples beyond it. */
struct Tail
{
    double value = 0;
    double percentile = 0;
};

Tail
tailOf(std::vector<double> v)
{
    if (v.empty())
        return {};
    std::sort(v.begin(), v.end());
    const std::size_t k = v.size() > 10 ? v.size() - 11 : v.size() - 1;
    return {v[k], 100.0 * static_cast<double>(k + 1) /
                      static_cast<double>(v.size())};
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const Metrics &metrics)
{
    std::string json = sim::format(
        "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto &[name, m] : metrics) {
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        json += sim::format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            first ? "" : ", ", name.c_str(), v,
                            m.unit.c_str());
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = -1;
    bool trace = false;
    std::string workDir;
    std::string expectDigest;
    std::string spanFile;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = std::stoull(v);
        else if (flag == "--seconds")
            a.seconds = std::stod(v);
        else if (flag == "--trace")
            a.trace = v == "1";
        else if (flag == "--work-dir")
            a.workDir = v;
        else if (flag == "--expect-digest")
            a.expectDigest = v;
        else if (flag == "--span-file")
            a.spanFile = v;
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (a.seconds < 0)
        throw std::runtime_error("--seconds is required");
    if (a.workDir.empty())
        throw std::runtime_error("--work-dir is required");
    return a;
}

int
run(const Args &args)
{
    const Workload *wl = findWorkload(args.workload);
    if (!wl)
        throw std::runtime_error("unknown workload '" + args.workload + "'");
    sim::setQuiet(true);
    std::filesystem::create_directories(args.workDir);
    const int threads = std::max(
        1, std::min<int>(benchThreads,
                         static_cast<int>(std::thread::hardware_concurrency())));

    // Untraced repetitions: the whole budget, or half of it when the
    // traced run repeats them.
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    std::vector<RepMeasure> reps;
    const Clock::time_point start = Clock::now();
    do {
        const std::uint64_t campaign_seed =
            core::Campaign::pointSeed(args.seed, reps.size());
        reps.push_back(runRep(*wl, campaign_seed, threads,
                              args.workDir + "/rep.jsonl"));
        if (!args.trace && reps.size() > 1)
            reps.back().stream = {}; // only repetition 0 is re-checked
    } while (seconds(Clock::now() - start) < budget);

    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<double> setup, sweep, idle;
    std::vector<std::vector<double>> by_point(reps.front().pointMs.size());
    double instructions = 0;
    double point_seconds = 0;
    double point_cpu_seconds = 0;
    for (const RepMeasure &r : reps) {
        attempted += r.attempted;
        failed += r.failed;
        setup.push_back(r.setupS);
        sweep.push_back(r.sweepS);
        idle.push_back(r.poolIdleShare);
        for (std::size_t i = 0; i < r.pointMs.size(); ++i) {
            if (r.pointMs[i] >= 0)
                by_point[i].push_back(r.pointMs[i]);
        }
        instructions += r.instructions;
        point_seconds += r.pointSecondsSum;
        point_cpu_seconds += r.pointCpuSecondsSum;
    }

    // Result correctness beyond the per-point checks.
    const RepStream &rep0 = reps.front().stream;
    const std::string digest =
        core::formatPointKey(core::hashCanonicalText(rep0.text));
    std::printf("digest of the first repetition: %s\n", digest.c_str());
    if (!args.expectDigest.empty() && digest != args.expectDigest) {
        std::printf("check failed: digest differs from the stored %s\n",
                    args.expectDigest.c_str());
        failed += rep0.points.size();
    }
    if (!resumeReproduces(*wl, rep0, threads, args.workDir)) {
        std::printf("check failed: resuming from the first repetition's "
                    "stream did not reproduce it without running points\n");
        failed += rep0.points.size();
    }

    Metrics metrics;
    if (!args.trace) {
        // Like the median below, the tail is taken per batch point, and
        // the median of the points' tails is reported. The pooled tail
        // sat at a percentile that climbs with the run's sample count,
        // and the slowest point's tail moved with whichever point one
        // host hiccup hit; the median of the points' tails moves less.
        std::vector<double> tails;
        for (std::size_t i = 0; i < by_point.size(); ++i) {
            const Tail t = tailOf(by_point[i]);
            tails.push_back(t.value);
            std::printf("point_wall_ms_tail of %s: p%.1f of %zu samples = "
                        "%.3f ms\n",
                        rep0.points[i].label.c_str(), t.percentile,
                        by_point[i].size(), t.value);
        }
        std::printf("%zu repetitions of %zu points on %d threads\n",
                    reps.size(), rep0.points.size(), threads);
        // The metrics are wall times, as a user sees them. On a virtual
        // machine the hypervisor may steal time from the workers; this
        // ratio (1 when nothing is stolen) shows how much a run lost.
        std::printf("host: point wall time / worker CPU time = %.3f\n",
                    point_seconds / point_cpu_seconds);
        metrics["sweep_wall_s"] = {median(sweep), "s"};
        // The batch mixes points whose costs differ up to 2x, so the
        // pooled median would sit in the gap between two of them; take
        // each batch point's median over the repetitions instead, and
        // the median of those.
        std::vector<double> point_medians;
        for (const std::vector<double> &v : by_point)
            point_medians.push_back(median(v));
        metrics["point_wall_ms_p50"] = {median(point_medians), "ms"};
        metrics["point_wall_ms_tail"] = {median(tails), "ms"};
        metrics["sim_mips"] = {instructions / point_seconds / 1e6, "MIPS"};
        metrics["setup_s"] = {median(setup), "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        metrics["point_success_rate"] = {
            1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
            "share"};
    } else {
        TraceInputs in;
        in.threads = threads;
        for (RepMeasure &r : reps)
            in.reps.push_back(std::move(r.stream));
        in.untracedPointMs = by_point;
        in.poolIdleShare = idle;
        in.workDir = args.workDir;
        in.spanFile = args.spanFile;
        TraceOutcome t = runTraced(in);
        attempted += t.attempted;
        failed += t.failed;
        metrics = std::move(t.metrics);
        metrics["point_failure_rate"] = {
            static_cast<double>(failed) / static_cast<double>(attempted),
            "share"};
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}

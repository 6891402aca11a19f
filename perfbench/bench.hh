/**
 * @file
 * Shared declarations of the simulator benchmark (see README.md).
 *
 * The benchmark runs one named workload per process. An untraced run
 * drives whole campaigns through core::Campaign::run and reports the
 * end-to-end host-time metrics; a traced run (--trace 1) also drives
 * every point through the System protocol itself, records a span
 * around each call into a layer, reads the layers' typed counters at
 * span boundaries, and times the layers' hot public functions in
 * isolated probes.
 */

#ifndef NETAFFINITY_PERFBENCH_BENCH_HH
#define NETAFFINITY_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/campaign.hh"

namespace perfbench {

/** A measured value and its unit, as printed in the result line. */
struct Metric
{
    double value = 0;
    std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/** @return the median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Submission-ordered JSONL stream of one repetition's records. */
struct RepStream
{
    std::uint64_t campaignSeed = 0;
    std::vector<na::core::CampaignPoint> points; ///< seeds applied
    std::string text;
};

/** What the traced run needs from the untraced one. */
struct TraceInputs
{
    int threads = 1;
    /** Untraced streams, one per repetition the traced run repeats. */
    std::vector<RepStream> reps;
    /** Untraced wall times (ms) of each batch point, for the overhead. */
    std::vector<std::vector<double>> untracedPointMs;
    /** Untraced campaign pool idle share per repetition. */
    std::vector<double> poolIdleShare;
    std::string workDir;
    std::string spanFile;
};

/** Outcome of the traced run. */
struct TraceOutcome
{
    Metrics metrics;
    std::size_t attempted = 0;
    /** Points whose traced record differs from the untraced one or
     *  whose protocol threw. */
    std::size_t failed = 0;
};

/** Traced re-run of the untraced repetitions, then the probes. */
TraceOutcome runTraced(const TraceInputs &in);

} // namespace perfbench

#endif // NETAFFINITY_PERFBENCH_BENCH_HH

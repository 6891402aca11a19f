/**
 * @file
 * Shared scaffolding for the paper-reproduction benchmark binaries.
 *
 * Benches are declarative: build a sweep (core::SweepBuilder), run it
 * through the parallel campaign engine (core::Campaign), format tables
 * from the ResultSet. Environment knobs shared by every binary:
 *
 *   NA_CAMPAIGN_THREADS=N   worker threads (default: hardware)
 *   NA_CAMPAIGN_JSONL=PATH  stream each completed point to PATH as a
 *                           JSONL record (crash-safe, resumable; the
 *                           results format, results_jsonl.hh)
 */

#ifndef NETAFFINITY_BENCH_BENCH_COMMON_HH
#define NETAFFINITY_BENCH_BENCH_COMMON_HH

#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/table.hh"
#include "src/core/campaign.hh"
#include "src/core/env.hh"
#include "src/core/sweep.hh"
#include "src/sim/logging.hh"

namespace na::bench {

/** Transaction sizes swept by the paper's Figures 3 and 4. */
constexpr std::array<std::uint32_t, 7> paperSizes = {
    128, 256, 1024, 4096, 8192, 16384, 65536};

/** The two extreme sizes the in-depth analysis uses. */
constexpr std::uint32_t smallSize = 128;
constexpr std::uint32_t largeSize = 65536;

/**
 * The paper's table column order (None, Proc, Irq, Full). Keyed on the
 * enum — never on the position within core::allAffinityModes — so an
 * enum or list reorder cannot silently swap table columns.
 */
constexpr std::array<core::AffinityMode, 4> columnOrder = {
    core::AffinityMode::None, core::AffinityMode::Proc,
    core::AffinityMode::Irq, core::AffinityMode::Full};

/**
 * Run a campaign with the shared environment knobs applied: thread
 * count from NA_CAMPAIGN_THREADS (via Campaign::resolveThreads) and an
 * optional JSONL stream to $NA_CAMPAIGN_JSONL (unless the caller
 * already set one).
 */
inline core::ResultSet
runCampaign(std::vector<core::CampaignPoint> points,
            core::Campaign::Options options = {})
{
    if (options.jsonlPath.empty()) {
        if (auto path = core::env::str("NA_CAMPAIGN_JSONL"))
            options.jsonlPath = *path;
    }
    return core::Campaign::run(std::move(points), options);
}

inline const char *
modeLabel(workload::TtcpMode m)
{
    return m == workload::TtcpMode::Transmit ? "TX" : "RX";
}

/** Standard banner for every bench binary. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("\n================================================="
                "=============\n");
    std::printf("%s  (reproduces %s of Foong et al., ISPASS 2005)\n",
                what, paper_ref);
    std::printf("==================================================="
                "===========\n");
}

} // namespace na::bench

#endif // NETAFFINITY_BENCH_BENCH_COMMON_HH

/**
 * @file
 * JSONL results: campaign streaming, the current-schema-only reader
 * (strict integers, required fields), crash tolerance, resume
 * semantics, shard merge byte-identity with an unsharded run, and a
 * seeded mutation fuzz of every on-disk reader.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>

#include "src/core/campaign.hh"
#include "src/core/json.hh"
#include "src/core/point_key.hh"
#include "src/core/results_jsonl.hh"
#include "src/core/sweep.hh"

using namespace na;

namespace {

core::RunSchedule
tinySchedule()
{
    core::RunSchedule s;
    s.warmup = 2'000'000;   // 1 ms
    s.measure = 10'000'000; // 5 ms
    return s;
}

std::vector<core::CampaignPoint>
tinyPoints()
{
    core::SystemConfig base;
    base.numConnections = 2;
    return core::SweepBuilder()
        .base(base)
        .schedule(tinySchedule())
        .size(1024)
        .affinities({core::AffinityMode::None,
                     core::AffinityMode::Full})
        .build();
}

/** Temp-file path that is removed when the test ends. */
class TempPath
{
  public:
    explicit TempPath(const char *name)
        : p(::testing::TempDir() + name)
    {
        std::remove(p.c_str());
    }
    ~TempPath() { std::remove(p.c_str()); }
    const std::string &str() const { return p; }

  private:
    std::string p;
};

std::string
streamBytes(const core::ResultSet &rs)
{
    std::ostringstream os;
    core::writeResultsJsonl(os, rs);
    return os.str();
}

/** A complete minimal record body shared by the reader tests. */
const char *const recordBody =
    "\"label\": \"L\", \"config\": {\"workload\": \"ttcp\", "
    "\"mode\": \"tx\", \"msg_size\": 1024, \"affinity\": \"full\", "
    "\"connections\": 2, \"cpus\": 2, \"seed\": 99, "
    "\"steering\": \"static\", \"queues\": 1, \"faults\": \"off\"}, "
    "\"result\": {\"seconds\": 0.5, \"payload_bytes\": 1000, "
    "\"throughput_mbps\": 16.5, \"cpu_util\": 0.5, "
    "\"ghz_per_gbps\": 1.25, \"util_per_cpu\": [0.5, 0.5], "
    "\"irqs\": 10, \"ipis\": 2, \"migrations\": 1, "
    "\"context_switches\": 5, \"tx_drops_ring_full\": 0, "
    "\"rx_drops_ring_full\": 0, \"rx_frames_per_queue\": [3], "
    "\"event_totals\": {\"cycles\": 1000, \"instructions\": 800, "
    "\"branches\": 90, \"br_mispredicts\": 4, \"llc_misses\": 7, "
    "\"l2_misses\": 9, \"tc_misses\": 3, \"itlb_misses\": 1, "
    "\"dtlb_misses\": 2, \"machine_clears\": 5}}";

/** One line: @p body under @p schema_token and a 16-hex key. */
std::string
recordLine(const std::string &key_hex, const std::string &body = recordBody,
           const std::string &schema_token =
               std::to_string(core::resultsSchemaVersion))
{
    return "{\"schema\": " + schema_token + ", \"point_key\": \"" +
           key_hex + "\", " + body + "}\n";
}

/** @p body with the first @p from replaced by @p to. */
std::string
withField(std::string body, const std::string &from,
          const std::string &to)
{
    const std::size_t at = body.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        body.replace(at, from.size(), to);
    return body;
}

/** readResultsJsonl() on @p text; @return the error, or "" if none. */
std::string
readError(const std::string &text)
{
    std::istringstream in(text);
    try {
        (void)core::readResultsJsonl(in);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ResultsJsonl, CampaignStreamsOneRecordPerPoint)
{
    TempPath path("jsonl_stream.jsonl");
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.jsonlPath = path.str();

    const core::ResultSet rs =
        core::Campaign::run(tinyPoints(), opts);
    ASSERT_EQ(rs.size(), 2u);

    const core::JsonlFile file =
        core::readResultsJsonlFile(path.str());
    EXPECT_FALSE(file.truncatedTail);
    ASSERT_EQ(file.records.size(), 2u);
    for (const core::JsonlRecord &r : file.records)
        EXPECT_NE(r.key, 0u);
    EXPECT_NE(file.records[0].key, file.records[1].key);

    // Streamed records carry the same payload the ResultSet does
    // (ordering may differ under threads; here numThreads == 1).
    for (std::size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(file.records[i].rec.label, rs.point(i).label);
        EXPECT_EQ(file.records[i].rec.result.throughputMbps,
                  rs.result(i).throughputMbps);
        EXPECT_EQ(file.records[i].rec.result.payloadBytes,
                  rs.result(i).payloadBytes);
    }
}

TEST(ResultsJsonl, TruncatedFinalLineIsToleratedAndRepaired)
{
    TempPath path("jsonl_torn.jsonl");
    {
        std::ofstream out(path.str(), std::ios::binary);
        out << recordLine("0000000000000001")
            << recordLine("0000000000000002");
        out << "{\"schema\": 6, \"point_"; // torn mid-write
    }

    const core::JsonlFile file =
        core::readResultsJsonlFile(path.str());
    EXPECT_TRUE(file.truncatedTail);
    ASSERT_EQ(file.records.size(), 2u);

    // The appender truncates the torn tail so the stream stays
    // well-formed for every subsequent reader.
    {
        core::JsonlAppender appender(path.str());
        ASSERT_TRUE(appender.ok());
        core::CampaignPoint point;
        point.label = "appended";
        point.config.numConnections = 2;
        core::RunResult result;
        ASSERT_TRUE(appender.append(point, result, 3));
    }
    const core::JsonlFile repaired =
        core::readResultsJsonlFile(path.str());
    EXPECT_FALSE(repaired.truncatedTail);
    ASSERT_EQ(repaired.records.size(), 3u);
    EXPECT_EQ(repaired.records[2].key, 3u);
    EXPECT_EQ(repaired.records[2].rec.label, "appended");
}

TEST(ResultsJsonl, MalformedInteriorLineIsAHardError)
{
    const std::string msg =
        readError(recordLine("0000000000000001") + "this is not json\n" +
                  recordLine("0000000000000002"));
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(ResultsJsonl, UnsupportedSchemaTokenIsAStructuredError)
{
    // Only the current schema reads: older tokens (whose records lack
    // now-required fields) and newer ones are refused on the line that
    // carries them, even when the payload itself is complete.
    for (const char *token : {"2", "3", "4", "5", "7", "6.0"}) {
        const std::string msg = readError(
            recordLine("0000000000000001") +
            recordLine("0000000000000002", recordBody, token));
        EXPECT_NE(msg.find(std::string("unsupported schema token ") +
                           token),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    }
    EXPECT_NE(readError(recordLine("0000000000000001", recordBody,
                                   "\"6\"")),
              "");
}

TEST(ResultsJsonl, CurrentSchemaFieldsAreRequired)
{
    // Fields older schemas lacked are mandatory now; the optional
    // blocks (failure, flows, reorder, intervals) stay optional.
    EXPECT_EQ(readError(recordLine("0000000000000001")), "");
    for (const char *field :
         {"\"workload\": \"ttcp\", ", ", \"faults\": \"off\"",
          "\"tx_drops_ring_full\": 0, ", "\"rx_drops_ring_full\": 0, "}) {
        const std::string msg = readError(
            recordLine("0000000000000001", withField(recordBody, field, "")));
        EXPECT_NE(msg.find("line 1"), std::string::npos)
            << field << ": " << msg;
    }

    core::CampaignPoint point;
    point.label = "mix";
    point.config.workload = workload::FlowMixConfig{};
    core::RunResult result;
    result.flows.started = 4;
    std::ostringstream os;
    core::writeJsonlRecord(os, point, result, 1);
    EXPECT_EQ(readError(os.str()), "");
    const std::string msg =
        readError(withField(os.str(), "\"flow_learn_drops\": 0, ", ""));
    EXPECT_NE(msg.find("flow_learn_drops"), std::string::npos) << msg;
}

TEST(ResultsJsonl, EventTotalsMustNameEveryEvent)
{
    std::istringstream in(recordLine("0000000000000001"));
    const core::JsonlFile r = core::readResultsJsonl(in);
    ASSERT_EQ(r.records.size(), 1u);
    EXPECT_EQ(r.records[0].rec.result.eventTotals[static_cast<std::size_t>(
                  prof::Event::MachineClears)],
              5u);

    // A hand-truncated block used to read back as zero counts.
    for (const char *field :
         {"\"cycles\": 1000, ", ", \"machine_clears\": 5"}) {
        const std::string msg = readError(
            recordLine("0000000000000001", withField(recordBody, field, "")));
        EXPECT_NE(msg.find("event_totals"), std::string::npos)
            << field << ": " << msg;
        EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
    }
    EXPECT_NE(readError(recordLine(
                  "0000000000000001",
                  withField(recordBody, "\"event_totals\": {",
                            "\"event_totals\": [], \"x\": {"))),
              "");
}

TEST(ResultsJsonl, UtilPerCpuMustHoldOneNumberPerCpu)
{
    for (const char *util : {"[0.5]", "[0.5, 0.5, 0.5]", "[]",
                             "[0.5, \"0.5\"]", "[0.5, null]", "0.5"}) {
        const std::string msg = readError(recordLine(
            "0000000000000001",
            withField(recordBody, "[0.5, 0.5]", util)));
        EXPECT_NE(msg.find("util_per_cpu"), std::string::npos)
            << util << ": " << msg;
    }
}

TEST(ResultsJsonl, OooDepthHistMustHaveEightBuckets)
{
    const std::string reorder =
        "\"reorder\": {\"ooo_arrivals\": 1, \"ooo_windows\": 1, "
        "\"ooo_window_ticks\": 10, \"ooo_depth_hist\": HIST, "
        "\"dup_ack_bursts\": 0, \"retransmits\": 0, "
        "\"spurious_retransmits\": 0, \"sender_hops\": 0}, "
        "\"event_totals\"";
    const auto withHist = [&](const std::string &hist) {
        return recordLine(
            "0000000000000001",
            withField(recordBody, "\"event_totals\"",
                      withField(reorder, "HIST", hist)));
    };
    EXPECT_EQ(readError(withHist("[1, 0, 0, 0, 0, 0, 0, 0]")), "");
    for (const char *hist : {"[1]", "[]", "[1, 0, 0, 0, 0, 0, 0, 0, 0]"}) {
        const std::string msg = readError(withHist(hist));
        EXPECT_NE(msg.find("ooo_depth_hist"), std::string::npos)
            << hist << ": " << msg;
    }
}

TEST(ResultsJsonl, OutOfRangeIntegersAreRejected)
{
    // A cast would read -1 as 2^64-1 (or a huge int), 1.5 as 1, and
    // 1e30 with undefined behaviour; each must be a line-naming error.
    const char *const bad[] = {"-1", "1e30", "1.5", "18446744073709551616"};
    const char *const fields[] = {"\"seed\": 99", "\"irqs\": 10",
                                  "\"cpus\": 2", "\"queues\": 1",
                                  "\"connections\": 2",
                                  "\"msg_size\": 1024"};
    for (const char *field : fields) {
        const std::string name =
            std::string(field).substr(0, std::string(field).find(':'));
        for (const char *tok : bad) {
            const std::string msg = readError(
                recordLine("0000000000000001",
                           withField(recordBody, field,
                                     name + ": " + tok)));
            EXPECT_NE(msg.find("line 1"), std::string::npos)
                << field << " = " << tok << ": " << msg;
        }
    }
    // In range for u64 but not for the int/uint32 fields they fill.
    EXPECT_NE(readError(recordLine(
                  "0000000000000001",
                  withField(recordBody, "\"cpus\": 2",
                            "\"cpus\": 2147483648"))),
              "");
    EXPECT_NE(readError(recordLine(
                  "0000000000000001",
                  withField(recordBody, "\"msg_size\": 1024",
                            "\"msg_size\": 4294967296"))),
              "");
    for (const char *tok : {"-1", "1e30", "1.5"}) {
        EXPECT_NE(readError(recordLine("0000000000000001", recordBody,
                                       tok)),
                  "")
            << "schema " << tok;
    }

    core::CampaignPoint point;
    point.label = "failed";
    core::RunResult failed;
    failed.failed = true;
    failed.failure.attempts = 2;
    std::ostringstream os;
    core::writeJsonlRecord(os, point, failed, 1);
    EXPECT_EQ(readError(os.str()), "");
    for (const char *tok : {"-1", "1e30", "1.5"}) {
        EXPECT_NE(readError(withField(os.str(), "\"attempts\": 2",
                                      std::string("\"attempts\": ") + tok)),
                  "")
            << "attempts " << tok;
    }
}

TEST(ResultsJsonl, MissingFileThrowsInsteadOfLookingEmpty)
{
    EXPECT_THROW(
        (void)core::readResultsJsonlFile("/nonexistent/nope.jsonl"),
        std::runtime_error);
}

TEST(ResultsJsonl, DuplicateKeyLastRecordWins)
{
    // Same key twice — a resume re-ran the point; the newer record
    // supersedes.
    std::istringstream in(
        recordLine("0000000000000001") +
        recordLine("0000000000000001",
                   withField(recordBody, "\"throughput_mbps\": 16.5",
                             "\"throughput_mbps\": 99.5")));
    const core::JsonlFile file = core::readResultsJsonl(in);
    ASSERT_EQ(file.records.size(), 2u);
    const auto latest = file.latestByKey();
    ASSERT_EQ(latest.size(), 1u);
    EXPECT_EQ(latest.at(1), 1u);

    const std::vector<core::JsonlRecord> merged =
        core::mergeShardFiles({file});
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].rec.result.throughputMbps, 99.5);
}

TEST(ResultsJsonl, CrossShardDuplicateKeyThrows)
{
    std::istringstream a_in(recordLine("0000000000000001"));
    std::istringstream b_in(recordLine("0000000000000001"));
    const core::JsonlFile a = core::readResultsJsonl(a_in);
    const core::JsonlFile b = core::readResultsJsonl(b_in);
    try {
        (void)core::mergeShardFiles({a, b});
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("0000000000000001"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("partition"), std::string::npos) << msg;
    }
}

TEST(ResultsJsonl, ResumeSkipsCompletedAndRerunsFailed)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 1;

    // Reference run: both points, streamed.
    TempPath full_path("jsonl_full.jsonl");
    core::Campaign::Options full_opts = opts;
    full_opts.jsonlPath = full_path.str();
    const core::ResultSet reference =
        core::Campaign::run(points, full_opts);
    ASSERT_EQ(reference.failureCount(), 0u);

    // Build a resume file where point 0's record is a *failure* and
    // point 1's is the real result: a crashed sweep whose first point
    // degraded.
    std::vector<core::CampaignPoint> keyed = points;
    core::Campaign::applyPointSeeds(keyed, opts);
    const std::vector<std::uint64_t> keys =
        core::Campaign::pointKeys(keyed);
    TempPath resume_path("jsonl_resume.jsonl");
    {
        std::ofstream out(resume_path.str(), std::ios::binary);
        core::RunResult failed;
        failed.failed = true;
        failed.failure.reason = "synthetic failure";
        failed.failure.attempts = 2;
        core::writeJsonlRecord(out, keyed[0], failed, keys[0]);
        core::writeJsonlRecord(out, keyed[1], reference.result(1),
                               keys[1]);
    }

    // Resume: the failed point re-runs, the completed one is
    // prefilled and skipped.
    std::vector<int> executions(points.size(), 0);
    std::size_t resumed_seen = 0;
    core::Campaign::Options resume_opts = opts;
    resume_opts.resumeFrom = resume_path.str();
    resume_opts.jsonlPath = resume_path.str();
    resume_opts.systemHook = [&](core::System &,
                                 const core::CampaignPoint &,
                                 std::size_t index) {
        executions[index] += 1;
    };
    resume_opts.progressHook =
        [&](const core::Campaign::Progress &p) {
            resumed_seen = p.resumed;
        };
    const core::ResultSet resumed =
        core::Campaign::run(points, resume_opts);

    EXPECT_EQ(executions[0], 1) << "failed point must re-run";
    EXPECT_EQ(executions[1], 0) << "completed point must be skipped";
    EXPECT_EQ(resumed_seen, 1u);
    EXPECT_EQ(resumed.failureCount(), 0u);

    // The re-run used exactly the seed an un-resumed campaign would:
    // its result matches the reference bit for bit, and the schema
    // fields of the prefilled point survive the round trip.
    EXPECT_EQ(resumed.result(0).throughputMbps,
              reference.result(0).throughputMbps);
    EXPECT_EQ(resumed.result(0).payloadBytes,
              reference.result(0).payloadBytes);
    EXPECT_EQ(resumed.result(1).throughputMbps,
              reference.result(1).throughputMbps);
    EXPECT_EQ(resumed.result(1).seconds, reference.result(1).seconds);

    // The stream now ends with the re-run's fresh record, which
    // supersedes the failure: assembling from it reproduces the
    // reference stream byte for byte.
    const core::JsonlFile stream =
        core::readResultsJsonlFile(resume_path.str());
    const core::ResultSet assembled = core::assembleResultSet(
        points, opts, core::mergeShardFiles({stream}),
        reference.threadsUsed);
    EXPECT_EQ(streamBytes(assembled), streamBytes(reference));
}

TEST(ResultsJsonl, ShardedRunsMergeByteIdenticalToUnsharded)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 1;
    const core::ResultSet reference =
        core::Campaign::run(points, opts);

    TempPath shard0("jsonl_shard0.jsonl");
    TempPath shard1("jsonl_shard1.jsonl");
    for (int s = 0; s < 2; ++s) {
        core::Campaign::Options shard_opts = opts;
        shard_opts.shardIndex = s;
        shard_opts.shardCount = 2;
        shard_opts.jsonlPath =
            s == 0 ? shard0.str() : shard1.str();
        (void)core::Campaign::run(points, shard_opts);
    }

    const std::vector<core::JsonlRecord> merged =
        core::mergeShardFiles(
            {core::readResultsJsonlFile(shard0.str()),
             core::readResultsJsonlFile(shard1.str())});
    const core::ResultSet assembled = core::assembleResultSet(
        points, opts, merged, reference.threadsUsed);
    EXPECT_EQ(streamBytes(assembled), streamBytes(reference));
}

TEST(ResultsJsonl, InvalidShardOptionsThrow)
{
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.shardCount = 2;
    opts.shardIndex = 2;
    EXPECT_THROW((void)core::Campaign::run(tinyPoints(), opts),
                 std::runtime_error);
    opts.shardIndex = -1;
    EXPECT_THROW((void)core::Campaign::run(tinyPoints(), opts),
                 std::runtime_error);
    opts.shardIndex = 0;
    opts.shardCount = 0;
    EXPECT_THROW((void)core::Campaign::run(tinyPoints(), opts),
                 std::runtime_error);
}

TEST(ResultsJsonl, AssembleThrowsOnMissingPoints)
{
    std::vector<core::CampaignPoint> points = tinyPoints();
    core::Campaign::Options opts;
    opts.numThreads = 1;
    try {
        (void)core::assembleResultSet(points, opts, {}, 1);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        // Every missing label must be named.
        const std::string msg = e.what();
        EXPECT_NE(msg.find(points[0].label), std::string::npos)
            << msg;
        EXPECT_NE(msg.find(points[1].label), std::string::npos)
            << msg;
    }
}

TEST(ResultsJsonl, StreamedFileMatchesSubmissionOrderWriter)
{
    // End to end: a serial campaign's stream is byte-identical to the
    // submission-order writer, and so is the ResultSet reassembled
    // from the stream alone.
    std::vector<core::CampaignPoint> points = tinyPoints();
    TempPath path("jsonl_roundtrip.jsonl");
    core::Campaign::Options opts;
    opts.numThreads = 1;
    opts.jsonlPath = path.str();
    const core::ResultSet rs = core::Campaign::run(points, opts);

    std::ifstream in(path.str(), std::ios::binary);
    std::ostringstream raw;
    raw << in.rdbuf();
    EXPECT_EQ(raw.str(), streamBytes(rs));

    const core::JsonlFile file =
        core::readResultsJsonlFile(path.str());
    const core::ResultSet assembled = core::assembleResultSet(
        points, opts, core::mergeShardFiles({file}), rs.threadsUsed);
    EXPECT_EQ(streamBytes(assembled), streamBytes(rs));
}

/**
 * A real stream whose records exercise every optional block: a ttcp
 * point with interval stats, then the same result degraded (failure),
 * as a mix point (flows), and with reordering (reorder).
 */
std::string
fuzzSeedStream()
{
    core::SystemConfig base;
    base.numConnections = 2;
    base.statsIntervalUs = 1000.0;
    std::vector<core::CampaignPoint> points =
        core::SweepBuilder()
            .base(base)
            .schedule(tinySchedule())
            .size(1024)
            .affinity(core::AffinityMode::Full)
            .build();
    core::Campaign::Options opts;
    opts.numThreads = 1;
    const core::ResultSet rs = core::Campaign::run(points, opts);
    const core::RunResult &measured = rs.result(0);
    EXPECT_FALSE(measured.intervals.empty());

    core::RunResult failed = measured;
    failed.failed = true;
    failed.failure.reason = "stalled: \"no progress\"\n";
    failed.failure.configSummary = "TX 1024B";
    failed.failure.ticksReached = 4'000'000;
    failed.failure.attempts = 2;

    core::CampaignPoint mix;
    mix.label = "mix point";
    mix.config.workload = workload::FlowMixConfig{};
    core::RunResult flows = measured;
    flows.flows.started = 40;
    flows.flows.completed = 38;
    flows.flows.flowLearnDrops = 1;
    flows.flows.sizeBuckets = {{4095, 12, 40000}, {65535, 26, 900000}};

    core::RunResult reordered = measured;
    reordered.reorder.oooArrivals = 7;
    reordered.reorder.oooDepthHist = {4, 2, 1, 0, 0, 0, 0, 0};
    reordered.reorder.spuriousRetransmits = 2;

    std::ostringstream os;
    core::writeJsonlRecord(os, rs.point(0), measured, 0x11);
    core::writeJsonlRecord(os, rs.point(0), failed, 0x22);
    core::writeJsonlRecord(os, mix, flows, 0x33);
    core::writeJsonlRecord(os, rs.point(0), reordered, 0x44);
    return os.str();
}

/** Run @p f; a std::runtime_error is an accepted outcome. */
template <typename F>
void
returnsOrThrows(F f)
{
    try {
        f();
    } catch (const std::runtime_error &) {
    }
}

/** @return true when @p f throws std::runtime_error. */
template <typename F>
bool
throwsRuntimeError(F f)
{
    try {
        f();
    } catch (const std::runtime_error &) {
        return true;
    }
    return false;
}

TEST(ResultsJsonlFuzz, HostileInputThrowsAndNeverCrashes)
{
    const std::string seed = fuzzSeedStream();
    {
        std::istringstream in(seed);
        const core::JsonlFile file = core::readResultsJsonl(in);
        ASSERT_EQ(file.records.size(), 4u);
        EXPECT_TRUE(file.records[1].rec.result.failed);
        EXPECT_EQ(file.records[2].rec.result.flows.flowLearnDrops, 1u);
        EXPECT_EQ(file.records[3].rec.result.reorder.oooArrivals, 7u);
        EXPECT_FALSE(file.records[0].rec.result.intervals.empty());
    }

    // Field names that occur in the seed, for duplicated-key mutants.
    std::vector<std::string> names;
    for (std::size_t at = seed.find("\": "); at != std::string::npos;
         at = seed.find("\": ", at + 1)) {
        const std::size_t open = seed.rfind('"', at - 1);
        names.push_back(seed.substr(open, at + 3 - open));
    }
    ASSERT_FALSE(names.empty());

    std::mt19937_64 rng(0x5eed'f00dULL);
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    auto feed = [](const std::string &text) {
        returnsOrThrows([&] { (void)core::json::parse(text); });
        std::istringstream in(text);
        returnsOrThrows([&] { (void)core::readResultsJsonl(in); });
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            returnsOrThrows([&] { (void)core::json::parse(line); });
            const std::size_t key = line.find("\"point_key\": \"");
            if (key != std::string::npos) {
                returnsOrThrows([&] {
                    (void)core::parsePointKey(line.substr(key + 14, 16));
                });
            }
        }
    };

    for (int iter = 0; iter < 1500; ++iter) {
        std::string text = seed;
        switch (iter % 4) {
          case 0: // truncation, with or without a final newline
            text.resize(pick(text.size()));
            if (rng() & 1)
                text += '\n';
            break;
          case 1: // byte flips
            for (std::size_t n = 1 + pick(8); n > 0; --n)
                text[pick(text.size())] = static_cast<char>(rng());
            break;
          case 2: { // a duplicated key: every reader must refuse it
            const std::string &name = names[pick(names.size())];
            const std::size_t at = text.find(name);
            text.insert(at, name + "0, ");
            EXPECT_TRUE(throwsRuntimeError([&] {
                std::istringstream in(text + "\n");
                (void)core::readResultsJsonl(in);
            })) << "duplicated " << name;
            break;
          }
          case 3: { // deep nesting spliced into the first record
            const std::size_t depth = 60 + pick(200'000);
            text.insert(1, "\"deep\": " + std::string(depth, '[') +
                               std::string(depth, ']') + ", ");
            const std::string first = text.substr(0, text.find('\n'));
            if (depth > 64) {
                EXPECT_TRUE(throwsRuntimeError(
                    [&] { (void)core::json::parse(first); }))
                    << "depth " << depth;
            } else {
                EXPECT_NO_THROW((void)core::json::parse(first));
            }
            break;
          }
        }
        feed(text);
    }

    // Random bytes for the point-key parser, including the lengths
    // around the 16-digit form.
    for (int iter = 0; iter < 2000; ++iter) {
        std::string key(pick(20), '\0');
        for (char &c : key)
            c = static_cast<char>(rng());
        returnsOrThrows([&] { (void)core::parsePointKey(key); });
    }
}

} // namespace

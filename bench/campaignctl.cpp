/**
 * @file
 * Multi-process sharded campaign runner and its crash/resume selftest.
 *
 * The campaign engine partitions a sweep across worker *processes*
 * (Campaign::Options::shardIndex/shardCount), each appending its own
 * crash-safe JSONL stream; this binary is the orchestration layer:
 *
 *   campaignctl run <dir> [--shards N]
 *       Spawn N worker subprocesses over the built-in demo sweep, one
 *       shard each, then merge the shard streams into
 *       <dir>/campaign_results.jsonl.
 *
 *   campaignctl worker --shard I/N --jsonl PATH [--resume PATH]
 *                      [--die-after K]
 *       Run one shard of the built-in sweep. --resume prefills
 *       completed points from PATH (typically the same file, making
 *       the worker idempotently restartable). --die-after K simulates
 *       a mid-write crash: after K completed points the worker writes
 *       a *partial* JSONL line (no newline) and _exit()s — exactly the
 *       torn state a killed process leaves behind.
 *
 *   campaignctl merge --out PATH <shard.jsonl>...
 *       Merge shard streams and write one JSONL stream to PATH, in
 *       submission order.
 *
 *   campaignctl selftest <dir>
 *       The tier-1 CI scenario: reference unsharded run; shard 0 runs
 *       clean; shard 1 is killed mid-write; shard 1 is resumed (only
 *       the missing points re-run, with the seeds the unsharded run
 *       used); a second resume is a no-op (nothing re-runs, nothing is
 *       re-appended); the merged stream must be byte-identical to the
 *       reference run's. Exits nonzero on any deviation.
 *
 * All modes share one deterministic built-in sweep so worker processes
 * agree on submission order (and therefore seeds and point keys)
 * without any coordination channel beyond the shard files.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "src/core/campaign.hh"
#include "src/core/env.hh"
#include "src/core/results_jsonl.hh"
#include "src/core/sweep.hh"
#include "src/sim/logging.hh"

using namespace na;

namespace {

/** Campaign options every mode shares: one worker thread per process
 *  (processes are the parallelism axis here) and the default seed. */
core::Campaign::Options
baseOptions()
{
    core::Campaign::Options options;
    options.numThreads = 1;
    return options;
}

/**
 * The deterministic demo sweep: four ttcp points (2 sizes x 2 affinity
 * modes). Every worker rebuilds the identical list, so submission
 * indices — and with them seeds and point keys — agree across
 * processes with no coordination.
 */
std::vector<core::CampaignPoint>
buildSweep()
{
    core::SystemConfig base;
    base.numConnections = 2;

    core::RunSchedule schedule;
    schedule.warmup = 2'000'000; // 1 ms simulated
    schedule.measure = core::env::flag("NA_BENCH_FAST")
                           ? 10'000'000   // 5 ms simulated
                           : 40'000'000;  // 20 ms simulated

    return core::SweepBuilder()
        .base(base)
        .schedule(schedule)
        .sizes({1024, 4096})
        .affinities({core::AffinityMode::None, core::AffinityMode::Full})
        .build();
}

int
parseInt(const char *what, const std::string &text)
{
    int value = 0;
    const char *b = text.data();
    const char *e = b + text.size();
    auto [p, ec] = std::from_chars(b, e, value);
    if (ec != std::errc{} || p != e) {
        throw std::runtime_error(sim::format(
            "campaignctl: %s: '%s' is not an integer", what,
            text.c_str()));
    }
    return value;
}

/** Parse "I/N" shard syntax. */
void
parseShard(const std::string &text, int &index, int &count)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos) {
        throw std::runtime_error(sim::format(
            "campaignctl: --shard wants I/N, got '%s'", text.c_str()));
    }
    index = parseInt("shard index", text.substr(0, slash));
    count = parseInt("shard count", text.substr(slash + 1));
}

/** Shell-quote @p s for std::system (single quotes, ' -> '\''). */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

/** Run @p cmd; @return its exit code, or -1 when it died abnormally. */
int
runCommand(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** The submission-ordered JSONL bytes of @p results. */
std::string
streamBytes(const core::ResultSet &results)
{
    std::ostringstream os;
    core::writeResultsJsonl(os, results);
    return os.str();
}

/** Write @p results to @p path as one submission-ordered stream. */
void
writeMerged(const char *mode, const std::string &path,
            const core::ResultSet &results)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    core::writeResultsJsonl(out, results);
    out.close();
    if (!out) {
        throw std::runtime_error(sim::format(
            "campaignctl %s: cannot write '%s'", mode, path.c_str()));
    }
}

/** Worker mode. @return process exit code. */
int
workerMain(int argc, char **argv)
{
    int shard_index = 0;
    int shard_count = 1;
    std::string jsonl;
    std::string resume;
    int die_after = -1;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                throw std::runtime_error(sim::format(
                    "campaignctl: %s wants a value", arg.c_str()));
            }
            return argv[++i];
        };
        if (arg == "--shard")
            parseShard(next(), shard_index, shard_count);
        else if (arg == "--jsonl")
            jsonl = next();
        else if (arg == "--resume")
            resume = next();
        else if (arg == "--die-after")
            die_after = parseInt("--die-after", next());
        else
            throw std::runtime_error(sim::format(
                "campaignctl worker: unknown flag '%s'", arg.c_str()));
    }
    if (jsonl.empty())
        throw std::runtime_error("campaignctl worker: --jsonl required");

    core::Campaign::Options options = baseOptions();
    options.shardIndex = shard_index;
    options.shardCount = shard_count;
    options.jsonlPath = jsonl;
    options.resumeFrom = resume;
    options.progressHook = [&](const core::Campaign::Progress &p) {
        std::fprintf(stderr, "shard %d/%d: %zu/%zu done (%s)\n",
                     shard_index, shard_count, p.completed, p.total,
                     p.lastLabel.c_str());
        if (die_after >= 0 &&
            p.completed >= static_cast<std::size_t>(die_after)) {
            // Simulate a process killed mid-append: leave a torn,
            // newline-less partial record at the tail, then die
            // without unwinding. The resume path must repair this.
            std::ofstream out(jsonl,
                              std::ios::binary | std::ios::app);
            out << "{\"schema\": " << core::resultsSchemaVersion
                << ", \"point_key\": \"dead";
            out.flush();
            std::fprintf(stderr, "shard %d/%d: simulated crash\n",
                         shard_index, shard_count);
            _exit(3);
        }
    };

    core::ResultSet rs = core::Campaign::run(buildSweep(), options);
    if (rs.failureCount() != 0) {
        std::fprintf(stderr, "campaignctl worker: %zu point(s) failed\n",
                     rs.failureCount());
        return 1;
    }
    return 0;
}

/** Merge shard files into a submission-ordered ResultSet. */
core::ResultSet
mergeFiles(const std::vector<std::string> &paths)
{
    std::vector<core::JsonlFile> shards;
    shards.reserve(paths.size());
    for (const std::string &p : paths)
        shards.push_back(core::readResultsJsonlFile(p));
    const std::vector<core::JsonlRecord> merged =
        core::mergeShardFiles(shards);
    return core::assembleResultSet(buildSweep(), baseOptions(), merged,
                                   /*threads_used=*/1);
}

int
mergeMain(int argc, char **argv)
{
    std::string out_path;
    std::vector<std::string> inputs;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out") {
            if (i + 1 >= argc)
                throw std::runtime_error(
                    "campaignctl merge: --out wants a value");
            out_path = argv[++i];
        } else {
            inputs.push_back(arg);
        }
    }
    if (out_path.empty() || inputs.empty()) {
        throw std::runtime_error("campaignctl merge: usage: merge "
                                 "--out PATH <shard.jsonl>...");
    }
    const core::ResultSet rs = mergeFiles(inputs);
    writeMerged("merge", out_path, rs);
    std::printf("merged %zu shard file(s), %zu points -> %s\n",
                inputs.size(), rs.size(), out_path.c_str());
    return 0;
}

int
runMain(const std::string &argv0, int argc, char **argv)
{
    std::string dir;
    int shards = 2;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--shards") {
            if (i + 1 >= argc)
                throw std::runtime_error(
                    "campaignctl run: --shards wants a value");
            shards = parseInt("--shards", argv[++i]);
        } else if (dir.empty()) {
            dir = arg;
        } else {
            throw std::runtime_error(sim::format(
                "campaignctl run: unexpected argument '%s'",
                arg.c_str()));
        }
    }
    if (dir.empty() || shards < 1) {
        throw std::runtime_error(
            "campaignctl run: usage: run <dir> [--shards N]");
    }
    std::filesystem::create_directories(dir);

    std::vector<std::string> shard_paths;
    for (int s = 0; s < shards; ++s) {
        const std::string path =
            dir + "/shard" + std::to_string(s) + ".jsonl";
        shard_paths.push_back(path);
        std::string cmd =
            shellQuote(argv0) + " worker --shard " + std::to_string(s) +
            "/" + std::to_string(shards) + " --jsonl " +
            shellQuote(path);
        // Restartable in place: resume from the shard's own stream
        // when a previous (possibly killed) launch left one. A fresh
        // launch must not pass --resume — a missing resume file is a
        // hard error by design, not an empty campaign.
        if (std::filesystem::exists(path))
            cmd += " --resume " + shellQuote(path);
        const int rc = runCommand(cmd);
        if (rc != 0) {
            throw std::runtime_error(sim::format(
                "campaignctl run: shard %d exited with %d", s, rc));
        }
    }

    const std::string out = dir + "/campaign_results.jsonl";
    const core::ResultSet rs = mergeFiles(shard_paths);
    writeMerged("run", out, rs);
    std::printf("campaign complete: %d shard(s), %zu points -> %s\n",
                shards, rs.size(), out.c_str());
    return 0;
}

std::uintmax_t
fileSize(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
}

int
selftestMain(const std::string &argv0, int argc, char **argv)
{
    if (argc < 1) {
        throw std::runtime_error(
            "campaignctl selftest: usage: selftest <dir>");
    }
    const std::string dir = argv[0];
    std::filesystem::create_directories(dir);
    const std::string shard0 = dir + "/shard0.jsonl";
    const std::string shard1 = dir + "/shard1.jsonl";
    std::filesystem::remove(shard0);
    std::filesystem::remove(shard1);

    // Reference: the whole sweep, one process, no sharding.
    const core::ResultSet reference =
        core::Campaign::run(buildSweep(), baseOptions());
    if (reference.failureCount() != 0) {
        std::fprintf(stderr, "selftest: reference run had failures\n");
        return 1;
    }
    const std::string doc_a = streamBytes(reference);

    // Shard 0 runs to completion.
    const std::string cmd0 = shellQuote(argv0) +
                             " worker --shard 0/2 --jsonl " +
                             shellQuote(shard0);
    if (int rc = runCommand(cmd0); rc != 0) {
        std::fprintf(stderr, "selftest: shard 0 exited with %d\n", rc);
        return 1;
    }

    // Shard 1 is killed mid-write after its first point: its stream
    // ends in a torn, newline-less partial record.
    const std::string cmd1 = shellQuote(argv0) +
                             " worker --shard 1/2 --jsonl " +
                             shellQuote(shard1) + " --die-after 1";
    if (int rc = runCommand(cmd1); rc != 3) {
        std::fprintf(stderr,
                     "selftest: crashing shard exited with %d, "
                     "expected 3\n",
                     rc);
        return 1;
    }
    {
        const core::JsonlFile torn = core::readResultsJsonlFile(shard1);
        if (!torn.truncatedTail || torn.records.size() != 1) {
            std::fprintf(stderr,
                         "selftest: crashed shard stream has %zu "
                         "records, truncated_tail=%d — expected 1 "
                         "record and a torn tail\n",
                         torn.records.size(),
                         torn.truncatedTail ? 1 : 0);
            return 1;
        }
    }

    // Resume shard 1 in place: the completed point is skipped, the
    // torn tail repaired, only the missing point runs.
    const std::string cmd1r = shellQuote(argv0) +
                              " worker --shard 1/2 --jsonl " +
                              shellQuote(shard1) + " --resume " +
                              shellQuote(shard1);
    if (int rc = runCommand(cmd1r); rc != 0) {
        std::fprintf(stderr, "selftest: resume exited with %d\n", rc);
        return 1;
    }

    // A second resume finds every point completed: nothing re-runs
    // and nothing is re-appended — the file must not change.
    const std::uintmax_t size_before = fileSize(shard1);
    if (int rc = runCommand(cmd1r); rc != 0) {
        std::fprintf(stderr,
                     "selftest: idempotent resume exited with %d\n",
                     rc);
        return 1;
    }
    if (fileSize(shard1) != size_before) {
        std::fprintf(stderr,
                     "selftest: idempotent resume grew the stream "
                     "(%ju -> %ju bytes)\n",
                     static_cast<std::uintmax_t>(size_before),
                     static_cast<std::uintmax_t>(fileSize(shard1)));
        return 1;
    }

    // Merge the two shard streams and compare against the reference
    // stream, byte for byte.
    const core::ResultSet merged = mergeFiles({shard0, shard1});
    const std::string doc_b = streamBytes(merged);
    if (doc_a != doc_b) {
        std::fprintf(stderr,
                     "selftest: merged stream differs from the "
                     "unsharded reference (%zu vs %zu bytes)\n",
                     doc_b.size(), doc_a.size());
        return 1;
    }

    std::printf("campaignctl selftest OK: crash + resume + merge == "
                "unsharded run (%zu points, %zu-byte stream)\n",
                merged.size(), doc_a.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <selftest|run|worker|merge> ...\n",
                     argv[0]);
        return 2;
    }
    const std::string mode = argv[1];
    try {
        if (mode == "worker")
            return workerMain(argc - 2, argv + 2);
        if (mode == "merge")
            return mergeMain(argc - 2, argv + 2);
        if (mode == "run")
            return runMain(argv[0], argc - 2, argv + 2);
        if (mode == "selftest")
            return selftestMain(argv[0], argc - 2, argv + 2);
        std::fprintf(stderr, "campaignctl: unknown mode '%s'\n",
                     mode.c_str());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaignctl: %s\n", e.what());
        return 1;
    }
}

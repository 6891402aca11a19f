/**
 * @file
 * Campaign results on disk: one self-contained JSON record per line.
 *
 * This is the only results format. A campaign appends and flushes one
 * record per completed point (Campaign::Options::jsonlPath), so a
 * crashed overnight sweep keeps everything it finished and is
 * inspectable while it runs; writeResultsJsonl() writes a whole
 * ResultSet the same way, in submission order. Every line is
 *
 *   {"schema": 6, "point_key": "<16 hex>",
 *    "label": "TX 65536B Full Aff",
 *    "config": {
 *      "workload": "ttcp" | "mix",
 *      "mode": "tx" | "rx" | "-",    // "-" for non-ttcp points
 *      "msg_size": 65536,            // 0 for non-ttcp points
 *      "affinity": "none" | "irq" | "proc" | "full",
 *      "connections": 8, "cpus": 2, "seed": 1234567,
 *      "steering": "static" | "rss" | "flow_director",
 *      "queues": 1,
 *      "faults": "off" | <FaultPlan label>
 *    },
 *    "result": {
 *      "seconds": 0.05, "payload_bytes": 123456,
 *      "throughput_mbps": 1975.3, "cpu_util": 0.98,
 *      "ghz_per_gbps": 1.42, "util_per_cpu": [0.99, 0.97],
 *      "irqs": 1000, "ipis": 12,
 *      "migrations": 3, "context_switches": 450,
 *      "tx_drops_ring_full": 0, "rx_drops_ring_full": 0,
 *      "rx_frames_per_queue": [9000, 8800],
 *      "failure": {              // only for degraded points
 *        "reason": "...full untruncated message...",
 *        "config_summary": "TX 4096B ...",
 *        "ticks_reached": 4000000, "attempts": 2
 *      },
 *      "flows": {                // only for mix-workload points
 *        "started": 10000, "completed": 10000,
 *        "accepted": 10000, "retired": 10000,
 *        "accept_drops_backlog": 0, "accept_drops_pool": 0,
 *        "unmatched_frames": 0, "deferred_arrivals": 120,
 *        "flow_migrations": 5, "flow_learns": 9000,
 *        "flow_learn_drops": 0,
 *        "ooo_arrivals": 3, "live_connections": 0,
 *        "size_buckets": [
 *          {"max_bytes": 4095, "flows": 12, "bytes": 40000}, ...
 *        ]
 *      },
 *      "reorder": {              // only when reordering occurred
 *        "ooo_arrivals": 3, "ooo_windows": 2,
 *        "ooo_window_ticks": 81000,
 *        "ooo_depth_hist": [3, 0, 0, 0, 0, 0, 0, 0],
 *        "dup_ack_bursts": 2, "retransmits": 1,
 *        "spurious_retransmits": 1, "sender_hops": 40
 *      },
 *      "intervals": {            // only when interval stats ran
 *        "interval_ticks": 200000,
 *        "num_cpus": 2, "num_queues": 1,
 *        "windows": [
 *          {"start": 0, "end": 200000,
 *           "rx_frames_per_queue": [312],
 *           "deltas": [ ...cpu-major bin/event flat matrix... ]},
 *          ...
 *        ]
 *      },
 *      "event_totals": { "cycles": ..., "instructions": ..., ... }
 *    }}
 *
 * (shown wrapped; each record is one line). The reader accepts only
 * the current schema token: every field above without a "only ..."
 * note is required. Doubles are printed with std::to_chars (shortest
 * round-trip form) and parsed with std::from_chars, so values survive
 * a write/read round trip bit-exactly regardless of the process
 * locale; integers must be non-negative whole numbers in range.
 *
 * The point_key is the canonical config hash (point_key.hh): resume
 * matches records to points by key and shard merges reassemble a
 * ResultSet by key. A key of all zeros matches no point.
 *
 * Crash safety: an interrupted writer leaves at most one partial
 * final line. The reader tolerates exactly that — an unterminated,
 * unparseable tail is dropped (and flagged) instead of failing the
 * whole file; a malformed *interior* line is still a hard error. The
 * appender repairs such a tail (truncates it) before appending, so a
 * resumed shard keeps a well-formed stream.
 */

#ifndef NETAFFINITY_CORE_RESULTS_JSONL_HH
#define NETAFFINITY_CORE_RESULTS_JSONL_HH

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/campaign.hh"

namespace na::core {

/** Current results schema version: the "schema" token of every line. */
constexpr int resultsSchemaVersion = 6;

/** The label/config/result payload of one parsed record. */
struct JsonRunRecord
{
    std::string label;
    /** Workload kind token ("ttcp", "mix"). */
    std::string workload;
    /** ttcp direction; meaningless when workload != "ttcp". */
    workload::TtcpMode mode = workload::TtcpMode::Transmit;
    std::uint32_t msgSize = 0;
    AffinityMode affinity = AffinityMode::None;
    int connections = 0;
    int cpus = 0;
    std::uint64_t seed = 0;
    /** Steering policy token ("static", "rss", "flow_director"). */
    std::string steering;
    /** RX queues per NIC the point was provisioned with. */
    int queues = 1;
    /** Fault-plan label ("off" when the point ran fault-free). */
    std::string faults;
    /** Result fields the schema carries (bins stay zeroed). */
    RunResult result;
};

/** One parsed JSONL line. */
struct JsonlRecord
{
    /** Canonical point key. */
    std::uint64_t key = 0;
    JsonRunRecord rec;
};

/** A parsed JSONL stream. */
struct JsonlFile
{
    /** Records in file order (duplicates by key preserved). */
    std::vector<JsonlRecord> records;
    /** True when an unterminated partial final line was dropped. */
    bool truncatedTail = false;

    /**
     * @return record index of the *last* occurrence of every nonzero
     *         key — resume semantics: a re-run point's newer record
     *         supersedes its older one.
     */
    std::unordered_map<std::uint64_t, std::size_t> latestByKey() const;
};

/** Serialize one record (with trailing newline) to @p os. */
void writeJsonlRecord(std::ostream &os, const CampaignPoint &point,
                      const RunResult &result, std::uint64_t key);

/**
 * Serialize a whole campaign: one record per point, in submission
 * order, keyed by Campaign::pointKeys. A sharded, resumed, and merged
 * campaign writes the same bytes as one unsharded run.
 */
void writeResultsJsonl(std::ostream &os, const ResultSet &results);

/**
 * Parse a JSONL stream. Unterminated unparseable tail -> dropped and
 * flagged; any other malformed line, bad point key, or schema token
 * other than resultsSchemaVersion -> std::runtime_error naming the
 * line.
 */
JsonlFile readResultsJsonl(std::istream &is);

/** readResultsJsonl() on @p path. @throws when the file cannot be
 *  opened (a typo'd --resume path must not look like an empty
 *  campaign). */
JsonlFile readResultsJsonlFile(const std::string &path);

/**
 * Crash-safe line appender. Opening repairs a partial final line left
 * by a crashed writer (truncates it), then appends; every append
 * flushes, so a later crash again loses at most the in-flight line.
 */
class JsonlAppender
{
  public:
    explicit JsonlAppender(const std::string &path);

    bool ok() const { return static_cast<bool>(out); }
    const std::string &path() const { return filePath; }

    /** @return false on I/O failure (stream is left failed). */
    bool append(const CampaignPoint &point, const RunResult &result,
                std::uint64_t key);

  private:
    std::string filePath;
    std::ofstream out;
};

/**
 * Merge per-shard streams: within a file the latest record per key
 * wins (resume re-runs append); across files a shared key is a
 * partitioning bug and throws.
 * @return surviving records, shard-major, in file order. Zero-key
 *         records are passed through unmerged.
 */
std::vector<JsonlRecord>
mergeShardFiles(const std::vector<JsonlFile> &shards);

/**
 * Rebuild a submission-ordered ResultSet from streamed records: the
 * inverse of a sharded campaign. Applies the options' seed derivation
 * to @p points, computes their keys, and fills every slot from the
 * last record carrying that key.
 *
 * @throws std::runtime_error listing the labels of any points with no
 *         record (an incomplete merge must not silently produce
 *         zeroed rows).
 */
ResultSet assembleResultSet(std::vector<CampaignPoint> points,
                            const Campaign::Options &options,
                            const std::vector<JsonlRecord> &records,
                            int threads_used);

} // namespace na::core

#endif // NETAFFINITY_CORE_RESULTS_JSONL_HH

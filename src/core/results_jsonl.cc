#include "src/core/results_jsonl.hh"

#include <charconv>
#include <filesystem>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "src/core/json.hh"
#include "src/core/point_key.hh"
#include "src/prof/bins.hh"
#include "src/sim/logging.hh"

namespace na::core {

namespace {

using json::Value;

const char *
modeToken(workload::TtcpMode m)
{
    return m == workload::TtcpMode::Transmit ? "tx" : "rx";
}

const char *
affinityToken(AffinityMode a)
{
    switch (a) {
      case AffinityMode::None: return "none";
      case AffinityMode::Irq:  return "irq";
      case AffinityMode::Proc: return "proc";
      case AffinityMode::Full: return "full";
      default:                 return "?";
    }
}

/**
 * Shortest round-trip representation via std::to_chars. A printf
 * "%.17g" would be both longer and locale-dependent (LC_NUMERIC could
 * emit a comma decimal point, silently corrupting the file).
 */
std::string
dbl(double v)
{
    char buf[64];
    const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    if (ec != std::errc())
        return "0";
    return std::string(buf, ptr);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::format("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/**
 * Integer field @p name that must fit @p T: a negative, fractional, or
 * too-large token throws instead of wrapping or truncating.
 */
template <typename T>
T
bounded(const Value &v, const std::string &name)
{
    const std::uint64_t n = v.u64(name);
    if (n > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        throw std::runtime_error("results jsonl: field '" + name +
                                 "' is out of range");
    }
    return static_cast<T>(n);
}

void
writeIntervals(std::ostream &os, const prof::IntervalSeries &s)
{
    os << "\"intervals\": {\"interval_ticks\": " << s.intervalTicks
       << ", \"num_cpus\": " << s.numCpus << ", \"num_queues\": "
       << s.numQueues << ", \"windows\": [";
    for (std::size_t w = 0; w < s.windows.size(); ++w) {
        const prof::IntervalWindow &win = s.windows[w];
        os << (w ? ", " : "");
        os << "{\"start\": " << win.start << ", \"end\": " << win.end
           << ", \"rx_frames_per_queue\": [";
        for (std::size_t q = 0; q < win.rxFramesPerQueue.size(); ++q)
            os << (q ? ", " : "") << win.rxFramesPerQueue[q];
        os << "], \"deltas\": [";
        for (std::size_t i = 0; i < win.binDeltas.size(); ++i)
            os << (i ? ", " : "") << win.binDeltas[i];
        os << "]}";
    }
    os << "]}, ";
}

prof::IntervalSeries
readIntervals(const Value &iv)
{
    prof::IntervalSeries s;
    s.intervalTicks = iv.u64("interval_ticks");
    s.numCpus = bounded<int>(iv, "num_cpus");
    s.numQueues = bounded<int>(iv, "num_queues");
    const Value &windows = iv.field("windows");
    if (!windows.isArray())
        throw std::runtime_error(
            "results jsonl: intervals 'windows' is not a list");
    for (const Value &wv : windows.items) {
        prof::IntervalWindow w;
        w.start = wv.u64("start");
        w.end = wv.u64("end");
        for (const Value &qv : wv.field("rx_frames_per_queue").items)
            w.rxFramesPerQueue.push_back(qv.asU64());
        for (const Value &dv : wv.field("deltas").items)
            w.binDeltas.push_back(dv.asU64());
        s.windows.push_back(std::move(w));
    }
    return s;
}

void
writeFlows(std::ostream &os, const FlowStats &f)
{
    os << "\"flows\": {";
    os << "\"started\": " << f.started << ", \"completed\": "
       << f.completed << ", \"accepted\": " << f.accepted
       << ", \"retired\": " << f.retired;
    os << ", \"accept_drops_backlog\": " << f.acceptDropsBacklog
       << ", \"accept_drops_pool\": " << f.acceptDropsPool
       << ", \"unmatched_frames\": " << f.unmatchedFrames;
    os << ", \"deferred_arrivals\": " << f.deferredArrivals
       << ", \"flow_migrations\": " << f.flowMigrations
       << ", \"flow_learns\": " << f.flowLearns
       << ", \"flow_learn_drops\": " << f.flowLearnDrops
       << ", \"ooo_arrivals\": " << f.oooArrivals
       << ", \"live_connections\": " << f.liveConnections;
    os << ", \"size_buckets\": [";
    for (std::size_t b = 0; b < f.sizeBuckets.size(); ++b) {
        const FlowSizeBucketStat &s = f.sizeBuckets[b];
        os << (b ? ", " : "") << "{\"max_bytes\": " << s.maxBytes
           << ", \"flows\": " << s.flows << ", \"bytes\": " << s.bytes
           << "}";
    }
    os << "]}, ";
}

FlowStats
readFlows(const Value &fv)
{
    FlowStats f;
    f.started = fv.u64("started");
    f.completed = fv.u64("completed");
    f.accepted = fv.u64("accepted");
    f.retired = fv.u64("retired");
    f.acceptDropsBacklog = fv.u64("accept_drops_backlog");
    f.acceptDropsPool = fv.u64("accept_drops_pool");
    f.unmatchedFrames = fv.u64("unmatched_frames");
    f.deferredArrivals = fv.u64("deferred_arrivals");
    f.flowMigrations = fv.u64("flow_migrations");
    f.flowLearns = fv.u64("flow_learns");
    f.flowLearnDrops = fv.u64("flow_learn_drops");
    f.oooArrivals = fv.u64("ooo_arrivals");
    f.liveConnections = fv.u64("live_connections");
    const Value &buckets = fv.field("size_buckets");
    if (!buckets.isArray())
        throw std::runtime_error(
            "results jsonl: flows 'size_buckets' is not a list");
    for (const Value &bv : buckets.items) {
        FlowSizeBucketStat s;
        s.maxBytes = bv.u64("max_bytes");
        s.flows = bv.u64("flows");
        s.bytes = bv.u64("bytes");
        f.sizeBuckets.push_back(s);
    }
    return f;
}

void
writeReorder(std::ostream &os, const ReorderStats &ro)
{
    os << "\"reorder\": {";
    os << "\"ooo_arrivals\": " << ro.oooArrivals
       << ", \"ooo_windows\": " << ro.oooWindows
       << ", \"ooo_window_ticks\": " << ro.oooWindowTicks;
    os << ", \"ooo_depth_hist\": [";
    for (std::size_t b = 0; b < ro.oooDepthHist.size(); ++b)
        os << (b ? ", " : "") << ro.oooDepthHist[b];
    os << "]";
    os << ", \"dup_ack_bursts\": " << ro.dupAckBursts
       << ", \"retransmits\": " << ro.retransmits
       << ", \"spurious_retransmits\": " << ro.spuriousRetransmits
       << ", \"sender_hops\": " << ro.senderHops;
    os << "}, ";
}

ReorderStats
readReorder(const Value &rv)
{
    ReorderStats ro;
    ro.oooArrivals = rv.u64("ooo_arrivals");
    ro.oooWindows = rv.u64("ooo_windows");
    ro.oooWindowTicks = rv.u64("ooo_window_ticks");
    const Value &hist = rv.field("ooo_depth_hist");
    if (!hist.isArray())
        throw std::runtime_error(
            "results jsonl: reorder 'ooo_depth_hist' is not a list");
    if (hist.items.size() != ro.oooDepthHist.size()) {
        throw std::runtime_error(sim::format(
            "results jsonl: reorder 'ooo_depth_hist' must have %zu "
            "buckets, got %zu",
            ro.oooDepthHist.size(), hist.items.size()));
    }
    for (std::size_t b = 0; b < hist.items.size(); ++b)
        ro.oooDepthHist[b] = hist.items[b].asU64();
    ro.dupAckBursts = rv.u64("dup_ack_bursts");
    ro.retransmits = rv.u64("retransmits");
    ro.spuriousRetransmits = rv.u64("spurious_retransmits");
    ro.senderHops = rv.u64("sender_hops");
    return ro;
}

workload::TtcpMode
parseModeToken(const std::string &tok)
{
    if (tok == "tx")
        return workload::TtcpMode::Transmit;
    if (tok == "rx")
        return workload::TtcpMode::Receive;
    throw std::runtime_error("results jsonl: bad mode token '" + tok +
                             "'");
}

AffinityMode
parseAffinityToken(const std::string &tok)
{
    for (AffinityMode a : allAffinityModes) {
        if (tok == affinityToken(a))
            return a;
    }
    throw std::runtime_error("results jsonl: bad affinity token '" +
                             tok + "'");
}

/**
 * Emit `"label": ..., "config": {...}, "result": {...}` (no
 * surrounding braces) as one compact line-safe run of JSON.
 */
void
writePointRecord(std::ostream &os, const CampaignPoint &point,
                 const RunResult &r)
{
    const SystemConfig &c = point.config;
    const bool is_ttcp = c.workloadKind() == workload::Kind::Ttcp;
    os << "\"label\": \"" << jsonEscape(point.label) << "\", ";
    os << "\"config\": {\"workload\": \""
       << workload::kindToken(c.workloadKind()) << "\", \"mode\": \""
       << (is_ttcp ? modeToken(c.ttcp().mode) : "-")
       << "\", \"msg_size\": " << (is_ttcp ? c.ttcp().msgSize : 0u)
       << ", \"affinity\": \"" << affinityToken(c.affinity)
       << "\", \"connections\": " << c.numConnections << ", \"cpus\": "
       << c.platform.numCpus << ", \"seed\": " << c.platform.seed
       << ", \"steering\": \"" << net::steeringKindName(c.steering.kind)
       << "\", \"queues\": " << c.steering.numQueues
       << ", \"faults\": \""
       << jsonEscape(c.faults.enabled() ? c.faults.label() : "off")
       << "\"}, ";
    os << "\"result\": {";
    os << "\"seconds\": " << dbl(r.seconds) << ", ";
    os << "\"payload_bytes\": " << r.payloadBytes << ", ";
    os << "\"throughput_mbps\": " << dbl(r.throughputMbps) << ", ";
    os << "\"cpu_util\": " << dbl(r.cpuUtil) << ", ";
    os << "\"ghz_per_gbps\": " << dbl(r.ghzPerGbps) << ", ";
    os << "\"util_per_cpu\": [";
    for (int cpu = 0; cpu < c.platform.numCpus; ++cpu) {
        os << (cpu ? ", " : "")
           << dbl(r.utilPerCpu[static_cast<std::size_t>(cpu)]);
    }
    os << "], ";
    os << "\"irqs\": " << r.irqs << ", \"ipis\": " << r.ipis
       << ", \"migrations\": " << r.migrations
       << ", \"context_switches\": " << r.contextSwitches << ", ";
    os << "\"tx_drops_ring_full\": " << r.txDropsRingFull
       << ", \"rx_drops_ring_full\": " << r.rxDropsRingFull << ", ";
    os << "\"rx_frames_per_queue\": [";
    for (std::size_t q = 0; q < r.rxFramesPerQueue.size(); ++q)
        os << (q ? ", " : "") << r.rxFramesPerQueue[q];
    os << "], ";
    if (r.failed) {
        os << "\"failure\": {\"reason\": \""
           << jsonEscape(r.failure.reason)
           << "\", \"config_summary\": \""
           << jsonEscape(r.failure.configSummary)
           << "\", \"ticks_reached\": " << r.failure.ticksReached
           << ", \"attempts\": " << r.failure.attempts << "}, ";
    }
    if (r.flows.any())
        writeFlows(os, r.flows);
    if (r.reorder.any())
        writeReorder(os, r.reorder);
    if (!r.intervals.empty())
        writeIntervals(os, r.intervals);
    os << "\"event_totals\": {";
    for (std::size_t e = 0; e < prof::numEvents; ++e) {
        os << (e ? ", " : "") << '"'
           << prof::eventName(static_cast<prof::Event>(e)) << "\": "
           << r.eventTotals[e];
    }
    os << "}}";
}

/** Parse the `{label, config, result}` payload of one line. */
JsonRunRecord
parsePointRecord(const Value &pv)
{
    JsonRunRecord rec;
    rec.label = pv.str("label");

    const Value &cfg = pv.field("config");
    rec.workload = cfg.str("workload");
    if (rec.workload == "ttcp")
        rec.mode = parseModeToken(cfg.str("mode"));
    rec.msgSize = bounded<std::uint32_t>(cfg, "msg_size");
    rec.affinity = parseAffinityToken(cfg.str("affinity"));
    rec.connections = bounded<int>(cfg, "connections");
    rec.cpus = bounded<int>(cfg, "cpus");
    rec.seed = cfg.u64("seed");
    rec.steering = cfg.str("steering");
    rec.queues = bounded<int>(cfg, "queues");
    rec.faults = cfg.str("faults");
    rec.result.steeringPolicy = rec.steering;

    const Value &res = pv.field("result");
    rec.result.seconds = res.num("seconds");
    rec.result.payloadBytes = res.u64("payload_bytes");
    rec.result.throughputMbps = res.num("throughput_mbps");
    rec.result.cpuUtil = res.num("cpu_util");
    rec.result.ghzPerGbps = res.num("ghz_per_gbps");
    const Value &util = res.field("util_per_cpu");
    if (!util.isArray() ||
        util.items.size() != static_cast<std::size_t>(rec.cpus) ||
        util.items.size() > rec.result.utilPerCpu.size()) {
        throw std::runtime_error(sim::format(
            "results jsonl: 'util_per_cpu' must list one value per CPU "
            "(cpus = %d), got %zu",
            rec.cpus, util.isArray() ? util.items.size() : 0));
    }
    for (std::size_t c = 0; c < util.items.size(); ++c) {
        if (!util.items[c].isNumber()) {
            throw std::runtime_error(sim::format(
                "results jsonl: 'util_per_cpu' item %zu is not a number",
                c));
        }
        rec.result.utilPerCpu[c] = util.items[c].number;
    }
    rec.result.irqs = res.u64("irqs");
    rec.result.ipis = res.u64("ipis");
    rec.result.migrations = res.u64("migrations");
    rec.result.contextSwitches = res.u64("context_switches");
    rec.result.txDropsRingFull = res.u64("tx_drops_ring_full");
    rec.result.rxDropsRingFull = res.u64("rx_drops_ring_full");
    const Value &per_queue = res.field("rx_frames_per_queue");
    for (const Value &qv : per_queue.items)
        rec.result.rxFramesPerQueue.push_back(qv.asU64());
    if (res.has("failure")) {
        const Value &fv = res.field("failure");
        rec.result.failed = true;
        rec.result.failure.reason = fv.str("reason");
        rec.result.failure.configSummary = fv.str("config_summary");
        rec.result.failure.ticksReached = fv.u64("ticks_reached");
        rec.result.failure.attempts = bounded<int>(fv, "attempts");
    }
    if (res.has("flows"))
        rec.result.flows = readFlows(res.field("flows"));
    if (res.has("reorder"))
        rec.result.reorder = readReorder(res.field("reorder"));
    if (res.has("intervals"))
        rec.result.intervals = readIntervals(res.field("intervals"));
    const Value &events = res.field("event_totals");
    if (!events.isObject())
        throw std::runtime_error(
            "results jsonl: 'event_totals' is not an object");
    for (std::size_t e = 0; e < prof::numEvents; ++e) {
        const std::string name(
            prof::eventName(static_cast<prof::Event>(e)));
        if (!events.has(name)) {
            throw std::runtime_error("results jsonl: 'event_totals' lacks '" +
                                     name + "'");
        }
        rec.result.eventTotals[e] = events.u64(name);
    }
    return rec;
}

/** Parse one complete line into a record. @throws on any defect. */
JsonlRecord
parseLine(const std::string &line, std::size_t line_no)
{
    try {
        const Value v = json::parse(line);
        if (!v.isObject())
            throw std::runtime_error("record is not an object");
        const Value &schema = v.field("schema");
        if (!schema.isNumber())
            throw std::runtime_error("schema token is not a number");
        if (schema.text != std::to_string(resultsSchemaVersion)) {
            throw std::runtime_error(sim::format(
                "unsupported schema token %s (this reader understands "
                "only %d)",
                schema.text.c_str(), resultsSchemaVersion));
        }
        JsonlRecord rec;
        rec.key = parsePointKey(v.str("point_key"));
        rec.rec = parsePointRecord(v);
        return rec;
    } catch (const std::exception &e) {
        throw std::runtime_error(sim::format(
            "results jsonl line %zu: %s", line_no, e.what()));
    }
}

} // namespace

std::unordered_map<std::uint64_t, std::size_t>
JsonlFile::latestByKey() const
{
    std::unordered_map<std::uint64_t, std::size_t> latest;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].key != 0)
            latest[records[i].key] = i;
    }
    return latest;
}

void
writeJsonlRecord(std::ostream &os, const CampaignPoint &point,
                 const RunResult &result, std::uint64_t key)
{
    os << "{\"schema\": " << resultsSchemaVersion
       << ", \"point_key\": \"" << formatPointKey(key) << "\", ";
    writePointRecord(os, point, result);
    os << "}\n";
}

void
writeResultsJsonl(std::ostream &os, const ResultSet &results)
{
    std::vector<CampaignPoint> points;
    points.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        points.push_back(results.point(i));
    const std::vector<std::uint64_t> keys = Campaign::pointKeys(points);
    for (std::size_t i = 0; i < results.size(); ++i)
        writeJsonlRecord(os, points[i], results.result(i), keys[i]);
}

JsonlFile
readResultsJsonl(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    JsonlFile file;
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const std::string line =
            text.substr(pos, terminated ? nl - pos : std::string::npos);
        pos = terminated ? nl + 1 : text.size();
        ++line_no;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (terminated) {
            file.records.push_back(parseLine(line, line_no));
            continue;
        }
        // Unterminated tail: a crashed writer's partial line. Accept
        // it only if it happens to be complete and well-formed (a
        // writer that simply omitted the final newline); otherwise
        // drop it — that is the crash-tolerance contract.
        try {
            file.records.push_back(parseLine(line, line_no));
        } catch (const std::exception &) {
            file.truncatedTail = true;
        }
    }
    return file;
}

JsonlFile
readResultsJsonlFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw std::runtime_error(sim::format(
            "results jsonl: cannot open '%s'", path.c_str()));
    }
    return readResultsJsonl(in);
}

JsonlAppender::JsonlAppender(const std::string &path) : filePath(path)
{
    // Repair a crashed writer's partial final line before appending:
    // without this, the first appended record would glue onto the
    // partial tail and corrupt an *interior* line, which the reader
    // correctly refuses.
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec && size > 0) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string &text = buf.str();
        const std::size_t last_nl = text.rfind('\n');
        const std::uintmax_t keep =
            last_nl == std::string::npos ? 0 : last_nl + 1;
        if (keep < size)
            std::filesystem::resize_file(path, keep, ec);
    }
    out.open(path, std::ios::binary | std::ios::app);
}

bool
JsonlAppender::append(const CampaignPoint &point,
                      const RunResult &result, std::uint64_t key)
{
    if (!out)
        return false;
    writeJsonlRecord(out, point, result, key);
    out.flush();
    return static_cast<bool>(out);
}

std::vector<JsonlRecord>
mergeShardFiles(const std::vector<JsonlFile> &shards)
{
    std::vector<JsonlRecord> merged;
    // key -> shard index that contributed it (cross-shard duplicates
    // mean the partitioning is broken; refuse rather than guess).
    std::unordered_map<std::uint64_t, std::size_t> owner;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto latest = shards[s].latestByKey();
        for (std::size_t i = 0; i < shards[s].records.size(); ++i) {
            const JsonlRecord &r = shards[s].records[i];
            if (r.key != 0) {
                auto it = latest.find(r.key);
                if (it != latest.end() && it->second != i)
                    continue; // superseded within this shard
                auto [oit, inserted] = owner.emplace(r.key, s);
                if (!inserted) {
                    throw std::runtime_error(sim::format(
                        "results jsonl merge: point key %s ('%s') "
                        "appears in shard files %zu and %zu — the "
                        "shards do not partition the sweep",
                        formatPointKey(r.key).c_str(),
                        r.rec.label.c_str(), oit->second, s));
                }
            }
            merged.push_back(r);
        }
    }
    return merged;
}

ResultSet
assembleResultSet(std::vector<CampaignPoint> points,
                  const Campaign::Options &options,
                  const std::vector<JsonlRecord> &records,
                  int threads_used)
{
    Campaign::applyPointSeeds(points, options);
    const std::vector<std::uint64_t> keys = Campaign::pointKeys(points);

    std::unordered_map<std::uint64_t, std::size_t> latest;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].key != 0)
            latest[records[i].key] = i;
    }

    std::vector<RunResult> results(points.size());
    std::string missing;
    for (std::size_t i = 0; i < points.size(); ++i) {
        auto it = latest.find(keys[i]);
        if (it == latest.end()) {
            if (!missing.empty())
                missing += ", ";
            missing += "'" + points[i].label + "'";
            continue;
        }
        results[i] = records[it->second].rec.result;
    }
    if (!missing.empty()) {
        throw std::runtime_error(
            "results jsonl: no record for point(s) " + missing +
            " — merge is incomplete");
    }

    ResultSet rs(std::move(points), std::move(results));
    rs.campaignSeed = options.seed;
    rs.threadsUsed = threads_used;
    return rs;
}

} // namespace na::core

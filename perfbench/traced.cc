/**
 * @file
 * Traced run and layer probes of the simulator benchmark.
 *
 * The traced run repeats the untraced repetitions point by point,
 * driving each point through the System protocol itself (the same
 * calls, in the same order, as core::Experiment::measure), with a span
 * around each call. Counters are read through the layers' typed
 * stats::Scalar accessors at the end of the measurement window, never
 * from dumpStats text. Every traced record must equal the untraced
 * record of the same point byte for byte.
 *
 * The probes then time single public functions of the mem, cpu, sim
 * and net layers on inputs shaped like the workload. Spans live in
 * memory and are written to the span file when the run ends.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "perfbench/bench.hh"
#include "src/core/experiment.hh"
#include "src/core/results_jsonl.hh"
#include "src/cpu/core.hh"
#include "src/mem/addr_alloc.hh"
#include "src/mem/hierarchy.hh"
#include "src/mem/tlb.hh"
#include "src/net/connection_map.hh"
#include "src/prof/accounting.hh"
#include "src/prof/func_registry.hh"
#include "src/sim/event_queue.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using namespace na;

namespace {

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** One timed call: name, start, end, parent span, point id. */
struct Span
{
    const char *name;
    double startUs;
    double endUs;
    int parent; ///< index within the same point's spans, -1 for roots
    std::size_t point;
};

/** Spans of one point (or one repetition's bookkeeping). */
class Tracer
{
  public:
    Tracer(std::size_t point, Clock::time_point epoch)
        : point(point), epoch(epoch)
    {
    }

    int
    open(const char *name, int parent = -1)
    {
        spans.push_back({name, nowUs(), 0, parent, point});
        return static_cast<int>(spans.size() - 1);
    }

    /** Close span @p id. @return its duration in ms. */
    double
    close(int id)
    {
        Span &s = spans[static_cast<std::size_t>(id)];
        s.endUs = nowUs();
        return (s.endUs - s.startUs) / 1e3;
    }

    std::vector<Span> spans;

  private:
    std::size_t point;
    Clock::time_point epoch;

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
            .count();
    }
};

/**
 * Counts Core::charge calls per function: each charge posts its cycles
 * to the accounting matrix once. Every charge makes one trace-cache
 * lookup and one ITLB lookup per code page of the function.
 */
class ChargeCounter : public prof::Listener
{
  public:
    void
    onEvents(sim::CpuId, prof::FuncId func, prof::Event ev,
             std::uint64_t) override
    {
        if (ev == prof::Event::Cycles)
            ++charges[static_cast<std::size_t>(func)];
    }

    void reset() { charges.fill(0); }

    /** Payload copies: copy_to_user and copy_from_user charges. */
    double
    copies() const
    {
        return static_cast<double>(
            charges[static_cast<std::size_t>(prof::FuncId::CopyToUser)] +
            charges[static_cast<std::size_t>(prof::FuncId::CopyFromUser)]);
    }

    double
    tcLookups() const
    {
        double n = 0;
        for (std::uint64_t c : charges)
            n += static_cast<double>(c);
        return n;
    }

    double
    itlbLookups() const
    {
        double n = 0;
        for (std::size_t f = 0; f < prof::numFuncs; ++f) {
            const auto id = static_cast<prof::FuncId>(f);
            const std::uint64_t base = prof::funcCodeAddr(id);
            const std::uint32_t bytes = prof::funcDesc(id).codeBytes;
            const std::uint64_t last = base + (bytes ? bytes - 1 : 0);
            const std::uint64_t pages = (last >> mem::Tlb::pageShift) -
                                        (base >> mem::Tlb::pageShift) + 1;
            n += static_cast<double>(charges[f] * pages);
        }
        return n;
    }

  private:
    std::array<std::uint64_t, prof::numFuncs> charges{};
};

/** Layer counters over one measurement window (summable). */
struct Counters
{
    double kb = 0;      ///< payload KB at the sinks
    double simMs = 0;   ///< simulated window length
    double instructions = 0, cycles = 0, clears = 0;
    double accesses = 0, l1 = 0, l2 = 0, l3 = 0, itlb = 0, tc = 0;
    double stolen = 0;
    double contextSwitches = 0, irqs = 0, ipis = 0, softirqs = 0;
    double lockContentions = 0;
    double frames = 0, skbAllocs = 0, connInserts = 0, connCollisions = 0;
    double flowsCompleted = 0;
    double copies = 0;
    double events = 0, measureNs = 0;

    void
    add(const Counters &o)
    {
        kb += o.kb;
        simMs += o.simMs;
        instructions += o.instructions;
        cycles += o.cycles;
        clears += o.clears;
        accesses += o.accesses;
        l1 += o.l1;
        l2 += o.l2;
        l3 += o.l3;
        itlb += o.itlb;
        tc += o.tc;
        stolen += o.stolen;
        contextSwitches += o.contextSwitches;
        irqs += o.irqs;
        ipis += o.ipis;
        softirqs += o.softirqs;
        lockContentions += o.lockContentions;
        frames += o.frames;
        skbAllocs += o.skbAllocs;
        connInserts += o.connInserts;
        connCollisions += o.connCollisions;
        flowsCompleted += o.flowsCompleted;
        copies += o.copies;
        events += o.events;
        measureNs += o.measureNs;
    }
};

Counters
readCounters(core::System &sys, const ChargeCounter &charges,
             const core::RunResult &r)
{
    Counters c;
    c.kb = static_cast<double>(r.payloadBytes) / 1024.0;
    c.simMs = r.seconds * 1e3;
    os::Kernel &kern = sys.kernel();
    for (int i = 0; i < kern.numCpus(); ++i) {
        const cpu::Core &core = kern.core(i);
        const cpu::PerfCounters &pc = core.counters;
        c.instructions += pc.instructions.value();
        c.cycles += pc.busyCycles.value();
        c.clears += pc.machineClears.value();
        c.contextSwitches += pc.contextSwitches.value();
        c.irqs += pc.irqsReceived.value();
        c.ipis += pc.ipisReceived.value();
        const mem::CacheHierarchy &h = core.dataCaches();
        c.accesses += h.accesses.value();
        c.l1 += h.l1.hits.value() + h.l1.misses.value();
        c.l2 += h.l2.hits.value() + h.l2.misses.value();
        c.l3 += h.l3.hits.value() + h.l3.misses.value();
        c.stolen += h.linesStolenByRemote.value();
        c.lockContentions +=
            kern.scheduler().runQueue(i).lock.contentions.value();
    }
    c.itlb = charges.itlbLookups();
    c.tc = charges.tcLookups();
    c.copies = charges.copies();
    net::Driver &drv = sys.driver();
    c.softirqs = drv.softirqRuns.value();
    c.connInserts = drv.connectionTable().inserts.value();
    c.connCollisions = drv.connectionTable().collisions.value();
    c.skbAllocs = sys.skbPool().allocs.value();
    for (int i = 0; i < sys.numConnections(); ++i) {
        c.frames += sys.nic(i).rxFrames.value() + sys.nic(i).txFrames.value();
        if (sys.config().workloadKind() == workload::Kind::FlowMix)
            c.flowsCompleted += sys.flowPeer(i).flowsCompleted.value();
    }
    return c;
}

/** Everything the traced run learns from one point. */
struct TracedPoint
{
    bool ok = false;
    core::RunResult result;
    std::vector<Span> spans;
    double buildMs = 0, establishMs = 0, warmupMs = 0, measureMs = 0;
    double extractUs = 0, wallMs = 0;
    double eventsTotal = 0;
    double pending = 0; ///< mean live events at the window's two ends
    double liveConns = 0; ///< mean connection-table entries, same ends
    std::size_t connBuckets = 0;
    Counters counters;
};

/**
 * Drive one point through the protocol core::Experiment::measure runs
 * (no watchdog, one measurement window), timing each call.
 */
TracedPoint
tracePoint(const core::CampaignPoint &p, std::size_t id,
           Clock::time_point epoch)
{
    TracedPoint t;
    Tracer tr(id, epoch);
    const int root = tr.open("point");
    try {
        ChargeCounter charges; // outlives the System that reports to it
        int s = tr.open("System::System", root);
        core::System sys(p.config);
        t.buildMs = tr.close(s);
        const Clock::time_point wall0 = Clock::now();
        sys.kernel().accounting().setListener(&charges);
        sim::EventQueue &eq = sys.eventQueue();

        s = tr.open("System::establishAll", root);
        const bool up = sys.establishAll(p.schedule.establishDeadline);
        t.establishMs = tr.close(s);
        if (!up)
            throw std::runtime_error("connections failed to establish");

        s = tr.open("System::runFor(warmup)", root);
        sys.runFor(p.schedule.warmup);
        t.warmupMs = tr.close(s);

        s = tr.open("System::beginMeasurement", root);
        sys.beginMeasurement();
        tr.close(s);
        charges.reset();
        s = tr.open("System::sinkBytes", root);
        const std::uint64_t sink_before = sys.sinkBytes();
        tr.close(s);
        const sim::Tick t0 = eq.now();
        const double pending0 = static_cast<double>(eq.size());
        const net::ConnectionMap &conns = sys.driver().connectionTable();
        const double conns0 = static_cast<double>(conns.size());
        const std::uint64_t events0 = eq.processedCount();

        s = tr.open("System::runFor(measure)", root);
        sys.runFor(p.schedule.measure);
        t.measureMs = tr.close(s);
        const std::uint64_t events1 = eq.processedCount();
        t.pending = (pending0 + static_cast<double>(eq.size())) / 2;
        t.liveConns = (conns0 + static_cast<double>(conns.size())) / 2;

        s = tr.open("System::endMeasurement", root);
        sys.endMeasurement();
        tr.close(s);
        s = tr.open("System::sinkBytes", root);
        const std::uint64_t payload = sys.sinkBytes() - sink_before;
        tr.close(s);
        const double secs = sim::ticksToSeconds(
            eq.now() - t0, sys.config().platform.freqHz);

        s = tr.open("Experiment::extract", root);
        t.result = core::Experiment::extract(sys, secs, payload);
        t.extractUs = 1e3 * tr.close(s);
        t.wallMs = nsSince(wall0) / 1e6;

        t.counters = readCounters(sys, charges, t.result);
        t.counters.events = static_cast<double>(events1 - events0);
        t.counters.measureNs = t.measureMs * 1e6;
        t.eventsTotal = static_cast<double>(eq.processedCount());
        t.connBuckets = conns.bucketCount();
        t.ok = true;
    } catch (const std::exception &e) {
        std::printf("traced point %zu (%s) failed: %s\n", id, p.label.c_str(),
                    e.what());
    }
    tr.close(root);
    t.spans = std::move(tr.spans);
    return t;
}

/** Run fn(i) for i in [0, n) on up to @p threads threads. */
template <typename Fn>
void
parallelFor(std::size_t n, int threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1;
         t < std::min<std::size_t>(n, static_cast<std::size_t>(threads)); ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();
}

/** @return the median of five timings of @p probe. */
template <typename Probe>
double
medianOf5(Probe probe)
{
    std::vector<double> v;
    for (int i = 0; i < 5; ++i)
        v.push_back(probe());
    return median(v);
}

/** EventQueue::scheduleLambda + runOne at a steady pending depth. */
double
probeScheduleRun(std::size_t depth)
{
    sim::EventQueue q;
    std::mt19937_64 rng(1);
    constexpr sim::Tick spread = 2'000'000;
    for (std::size_t i = 0; i < depth; ++i)
        q.scheduleLambda(1 + rng() % spread, std::string(), [] {});
    constexpr int n = 200'000;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
        q.scheduleLambda(q.now() + 1 + rng() % spread, std::string(), [] {});
        q.runOne();
    }
    return nsSince(t0) / n;
}

/** Private cache hierarchies of @p cpus CPUs on one snoop domain. */
struct Caches
{
    explicit Caches(int cpus)
    {
        for (int c = 0; c < cpus; ++c) {
            h.push_back(std::make_unique<mem::CacheHierarchy>(
                &root, "cpu" + std::to_string(c), c, mem::CacheGeometry{},
                domain));
        }
    }

    stats::Group root{nullptr, "probe"};
    mem::SnoopDomain domain;
    std::vector<std::unique_ptr<mem::CacheHierarchy>> h;
};

/** Copy buffers spanning a 1 MiB working set (L2 < it < L3). */
struct Buffers
{
    explicit Buffers(std::uint32_t bytes)
        : bytes(bytes), count(std::max<std::uint32_t>(4, (1u << 20) / bytes)),
          base(mem::AddressAllocator().alloc(
              mem::Region::SkbSlab, std::uint64_t{count} * bytes))
    {
    }

    sim::Addr at(std::size_t i) const { return base + (i % count) * bytes; }

    std::uint32_t bytes;
    std::uint32_t count;
    sim::Addr base;
};

/** CacheHierarchy::access of whole copies, CPUs alternating. */
double
probeAccess(std::uint32_t bytes, int cpus)
{
    Caches c(cpus);
    const Buffers buf(bytes);
    const std::size_t lines_per = (bytes + 63) / 64;
    const std::size_t n = std::max<std::size_t>(1, (1u << 20) / lines_per);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        c.h[i % c.h.size()]->access(buf.at(i), bytes,
                                    (i / c.h.size()) % 2 == 1);
    }
    return nsSince(t0) / static_cast<double>(n * lines_per);
}

/** SnoopDomain::dmaRead + dmaWrite over buffers the CPUs dirtied. */
double
probeDma(std::uint32_t bytes, int cpus)
{
    Caches c(cpus);
    const Buffers buf(bytes);
    double ns = 0;
    double kb = 0;
    while (kb < 64 * 1024) {
        for (std::size_t i = 0; i < buf.count; ++i)
            c.h[i % c.h.size()]->access(buf.at(i), bytes, true);
        const Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < buf.count; ++i)
            c.domain.dmaRead(buf.at(i), bytes);
        for (std::size_t i = 0; i < buf.count; ++i)
            c.domain.dmaWrite(buf.at(i), bytes);
        ns += nsSince(t0);
        kb += 2.0 * buf.count * bytes / 1024.0;
    }
    return ns / kb;
}

/** Core::charge of copy_to_user / copy_from_user at the copy size. */
double
probeChargeCopy(std::uint32_t bytes, int cpus)
{
    cpu::PlatformConfig pc;
    pc.numCpus = cpus;
    stats::Group root(nullptr, "probe");
    mem::SnoopDomain domain(pc.memTiming);
    prof::BinAccounting acct(cpus);
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::vector<cpu::Core *> all;
    for (int i = 0; i < cpus; ++i) {
        cores.push_back(std::make_unique<cpu::Core>(
            &root, "cpu" + std::to_string(i), i, pc, domain, acct));
        all.push_back(cores.back().get());
    }
    for (auto &core : cores)
        core->setPeers(all);

    const Buffers src(bytes), dst(bytes);
    const std::size_t n = std::max<std::size_t>(1, (64u << 20) / bytes);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        // The shapes net::Socket charges for its two copy directions.
        const bool to_user = i % 2 == 0;
        const cpu::MemTouch touches[2] = {{src.at(i), bytes, false},
                                          {dst.at(i), bytes, true}};
        cpu::ChargeSpec spec;
        spec.func = to_user ? prof::FuncId::CopyToUser
                            : prof::FuncId::CopyFromUser;
        spec.instructions = to_user ? 60 + bytes / 8 : 40 + bytes * 5 / 8;
        spec.extraCycles = to_user ? std::uint64_t{bytes} * 2 : 0;
        spec.overlap = to_user ? 1.0 : 0.3;
        spec.touches = touches;
        cpu::Core &core = *cores[(i / 2) % cores.size()];
        core.beginDispatch();
        core.charge(spec);
    }
    return nsSince(t0) / (static_cast<double>(n) * bytes / 1024.0);
}

/** ConnectionMap erase + insert + four lookups at steady occupancy. */
double
probeConnMap(int flows, std::size_t buckets)
{
    stats::Group root(nullptr, "probe");
    sim::Addr next_line = 0;
    net::ConnectionMap map(&root, buckets, [&] { return next_line += 64; });
    auto key = [](std::uint64_t i) {
        net::FlowKey k;
        k.localAddr = 0x0a000001;
        k.remoteAddr = 0x0a010000 + static_cast<std::uint32_t>(i / 60000);
        k.localPort = 5001;
        k.remotePort = static_cast<std::uint16_t>(1024 + i % 60000);
        return k;
    };
    std::uint64_t oldest = 0;
    std::uint64_t newest = static_cast<std::uint64_t>(flows);
    for (std::uint64_t i = oldest; i < newest; ++i)
        map.insert(key(i), nullptr, nullptr);
    std::mt19937_64 rng(2);
    constexpr int n = 200'000;
    std::size_t found = 0;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < n; ++i) {
        map.erase(key(oldest++));
        map.insert(key(newest++), nullptr, nullptr);
        for (int l = 0; l < 4; ++l)
            found += map.lookup(key(oldest + rng() % flows)) != nullptr;
    }
    const double ns = nsSince(t0) / (6.0 * n);
    if (found != 4u * n)
        throw std::runtime_error("connection map probe lost a live flow");
    return ns;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

void
writeSpans(const std::string &path, const std::vector<TracedPoint> &points,
           const std::vector<Span> &extra)
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::trunc);
    auto put = [&out](const Span &s) {
        out << "{\"name\": \"" << s.name << "\", \"start_us\": " << s.startUs
            << ", \"end_us\": " << s.endUs << ", \"parent\": " << s.parent
            << ", \"point\": " << s.point << "}\n";
    };
    for (const Span &s : extra)
        put(s);
    for (const TracedPoint &p : points) {
        for (const Span &s : p.spans)
            put(s);
    }
}

} // namespace

TraceOutcome
runTraced(const TraceInputs &in)
{
    TraceOutcome out;
    const Clock::time_point epoch = Clock::now();
    const std::string append_path = in.workDir + "/traced.jsonl";
    std::filesystem::remove(append_path);
    core::JsonlAppender appender(append_path);

    std::vector<TracedPoint> traced;
    std::vector<Span> rep_spans;
    std::vector<double> keys_ms, append_us;
    for (std::size_t r = 0; r < in.reps.size(); ++r) {
        const RepStream &rep = in.reps[r];
        const std::size_t n = rep.points.size();
        Tracer tr(r * n, epoch);
        int s = tr.open("Campaign::pointKeys");
        const std::vector<std::uint64_t> keys =
            core::Campaign::pointKeys(rep.points);
        keys_ms.push_back(tr.close(s));

        std::vector<TracedPoint> batch(n);
        parallelFor(n, in.threads, [&](std::size_t i) {
            batch[i] = tracePoint(rep.points[i], r * n + i, epoch);
        });

        std::istringstream untraced(rep.text);
        std::string line;
        for (std::size_t i = 0; i < n; ++i) {
            std::getline(untraced, line);
            ++out.attempted;
            TracedPoint &t = batch[i];
            std::ostringstream rec;
            if (t.ok) {
                core::writeJsonlRecord(rec, rep.points[i], t.result, keys[i]);
                s = tr.open("JsonlAppender::append");
                appender.append(rep.points[i], t.result, keys[i]);
                append_us.push_back(1e3 * tr.close(s));
            }
            if (!t.ok || rec.str() != line + '\n') {
                std::printf("check failed: traced record of %s differs "
                            "from the untraced one\n",
                            rep.points[i].label.c_str());
                ++out.failed;
                t.ok = false;
            }
        }
        rep_spans.insert(rep_spans.end(), tr.spans.begin(), tr.spans.end());
        for (TracedPoint &t : batch)
            traced.push_back(std::move(t));
    }
    std::filesystem::remove(append_path);

    Counters sum;
    std::vector<double> build, establish, warmup, measure, extract;
    std::vector<std::vector<double>> wall(in.untracedPointMs.size());
    double events = 0, pending = 0, live_conns = 0;
    std::size_t ok = 0, buckets = 1024;
    for (std::size_t j = 0; j < traced.size(); ++j) {
        const TracedPoint &t = traced[j];
        if (!t.ok)
            continue;
        ++ok;
        sum.add(t.counters);
        build.push_back(t.buildMs);
        establish.push_back(t.establishMs);
        warmup.push_back(t.warmupMs);
        measure.push_back(t.measureMs);
        extract.push_back(t.extractUs);
        wall[j % wall.size()].push_back(t.wallMs);
        events += t.eventsTotal;
        pending += t.pending;
        live_conns += t.liveConns;
        buckets = t.connBuckets;
    }
    const double points = std::max<double>(1, static_cast<double>(ok));
    writeSpans(in.spanFile, traced, rep_spans);

    // The probes' inputs, all measured in the traced windows: payload
    // bytes per copy charge (the size of each copy and its accesses),
    // pending events, and live connection-table entries.
    const int cpus = in.reps.front().points.front().config.platform.numCpus;
    const auto bytes = static_cast<std::uint32_t>(
        std::max(64.0, std::round(ratio(1024.0 * sum.kb, sum.copies))));
    const std::size_t depth =
        std::max<std::size_t>(1, static_cast<std::size_t>(pending / points));
    const int flows =
        std::max(1, static_cast<int>(std::lround(live_conns / points)));
    std::printf("probe inputs: %u B per copy, %d CPUs, %zu pending events, "
                "%d live connections in %zu buckets\n",
                bytes, cpus, depth, flows, buckets);

    Metrics &m = out.metrics;
    m["core.system_build_ms"] = {median(build), "ms"};
    m["core.point_keys_ms"] = {median(keys_ms), "ms"};
    m["core.establish_ms"] = {median(establish), "ms"};
    m["core.warmup_ms"] = {median(warmup), "ms"};
    m["core.measure_ms"] = {median(measure), "ms"};
    m["core.extract_us"] = {median(extract), "us"};
    m["core.pool_idle_share"] = {median(in.poolIdleShare), "share"};
    m["core.jsonl_append_us"] = {median(append_us), "us"};
    // Per batch point, like point_wall_ms_p50: the batch's points
    // differ in cost, so pooled medians would not pair up.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < wall.size(); ++i)
        overhead.push_back(median(wall[i]) - median(in.untracedPointMs[i]));
    m["core.tracing_overhead_ms"] = {median(overhead), "ms"};
    m["core.traced_points"] = {static_cast<double>(ok), "count"};

    m["sim.events_per_point"] = {events / points, "count"};
    m["sim.pending_events"] = {pending / points, "count"};
    m["sim.host_ns_per_event"] = {ratio(sum.measureNs, sum.events), "ns"};
    m["sim.schedule_run_ns"] = {
        medianOf5([&] { return probeScheduleRun(depth); }), "ns"};

    m["mem.accesses_per_kb"] = {ratio(sum.accesses, sum.kb), "1/KB"};
    m["mem.l1d_lookups_per_kb"] = {ratio(sum.l1, sum.kb), "1/KB"};
    m["mem.l2_lookups_per_kb"] = {ratio(sum.l2, sum.kb), "1/KB"};
    m["mem.l3_lookups_per_kb"] = {ratio(sum.l3, sum.kb), "1/KB"};
    m["mem.tlb_lookups_per_kb"] = {ratio(sum.itlb, sum.kb), "1/KB"};
    m["mem.tc_lookups_per_kb"] = {ratio(sum.tc, sum.kb), "1/KB"};
    m["mem.lines_stolen_per_kb"] = {ratio(sum.stolen, sum.kb), "1/KB"};
    m["mem.access_ns_per_line"] = {
        medianOf5([&] { return probeAccess(bytes, cpus); }), "ns/line"};
    m["mem.dma_ns_per_kb"] = {
        medianOf5([&] { return probeDma(bytes, cpus); }), "ns/KB"};

    m["cpu.instructions_per_kb"] = {ratio(sum.instructions, sum.kb), "1/KB"};
    m["cpu.cycles_per_kb"] = {ratio(sum.cycles, sum.kb), "1/KB"};
    m["cpu.machine_clears_per_kb"] = {ratio(sum.clears, sum.kb), "1/KB"};
    m["cpu.charge_copy_ns_per_kb"] = {
        medianOf5([&] { return probeChargeCopy(bytes, cpus); }), "ns/KB"};

    m["os.context_switches_per_ms"] = {
        ratio(sum.contextSwitches, sum.simMs), "1/ms"};
    m["os.irqs_per_ms"] = {ratio(sum.irqs, sum.simMs), "1/ms"};
    m["os.ipis_per_ms"] = {ratio(sum.ipis, sum.simMs), "1/ms"};
    m["os.softirq_runs_per_ms"] = {ratio(sum.softirqs, sum.simMs), "1/ms"};
    m["os.lock_contentions_per_ms"] = {
        ratio(sum.lockContentions, sum.simMs), "1/ms"};

    m["net.frames_per_kb"] = {ratio(sum.frames, sum.kb), "1/KB"};
    m["net.skb_allocs_per_kb"] = {ratio(sum.skbAllocs, sum.kb), "1/KB"};
    m["net.conn_inserts_per_ms"] = {ratio(sum.connInserts, sum.simMs), "1/ms"};
    m["net.conn_collisions_per_insert"] = {
        ratio(sum.connCollisions, sum.connInserts), "share"};
    m["net.flows_completed"] = {sum.flowsCompleted / points, "count"};
    m["net.conn_map_op_ns"] = {
        medianOf5([&] { return probeConnMap(flows, buckets); }),
        "ns"};

    std::printf("traced %zu points; tracing overhead %.3f ms per point "
                "(traced minus untraced median point wall time)\n",
                ok, m["core.tracing_overhead_ms"].value);
    return out;
}

} // namespace perfbench

/**
 * @file
 * Observability layer: TimeSeries stats, interval recording, the
 * Chrome trace-event tracer, and the core::json parser behind the
 * results reader and the trace self-checks.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/json.hh"
#include "src/prof/accounting.hh"
#include "src/prof/interval.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/timeline.hh"
#include "src/sim/trace.hh"
#include "src/stats/stats.hh"

using namespace na;

namespace {

// ---------------------------------------------------------------------
// stats::TimeSeries
// ---------------------------------------------------------------------

TEST(TimeSeries, RecordsWindowsAndTotals)
{
    stats::Group root(nullptr, "");
    stats::TimeSeries ts(&root, "rate", "test series");
    EXPECT_TRUE(ts.windows().empty());
    EXPECT_EQ(ts.total(), 0.0);

    ts.record(0, 100, 5.0);
    ts.record(100, 200, 7.5);
    ASSERT_EQ(ts.windows().size(), 2u);
    EXPECT_EQ(ts.windows()[1].start, 100u);
    EXPECT_EQ(ts.windows()[1].end, 200u);
    EXPECT_DOUBLE_EQ(ts.windows()[1].value, 7.5);
    EXPECT_DOUBLE_EQ(ts.total(), 12.5);

    ts.reset();
    EXPECT_TRUE(ts.windows().empty());
}

TEST(TimeSeries, DumpEmitsPerWindowLines)
{
    stats::Group root(nullptr, "");
    stats::TimeSeries ts(&root, "rate", "test series");
    ts.record(0, 10, 1.0);
    ts.record(10, 20, 2.0);
    std::ostringstream os;
    root.dumpStats(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("rate::w0"), std::string::npos);
    EXPECT_NE(out.find("rate::w1"), std::string::npos);
    EXPECT_NE(out.find("rate::total"), std::string::npos);
}

// ---------------------------------------------------------------------
// prof::IntervalRecorder
// ---------------------------------------------------------------------

TEST(IntervalRecorder, WindowDeltasTelescopeToAggregates)
{
    sim::EventQueue eq;
    prof::BinAccounting acct(2);
    std::uint64_t frames = 0;
    prof::IntervalRecorder rec(
        eq, acct, /*interval_ticks=*/100, /*num_queues=*/1,
        [&frames](int) { return frames; });

    rec.start();
    acct.add(0, prof::FuncId::TcpAck, prof::Event::Cycles, 5);
    eq.runUntil(150); // snapshot at 100 closes window 0

    acct.add(1, prof::FuncId::CopyToUser, prof::Event::Cycles, 7);
    frames += 3;
    eq.runUntil(250); // snapshot at 200 closes window 1

    acct.add(0, prof::FuncId::TcpAck, prof::Event::Cycles, 2);
    rec.finalize(); // closes the partial window [200, 250)

    const prof::IntervalSeries &s = rec.series();
    EXPECT_EQ(s.intervalTicks, 100u);
    EXPECT_EQ(s.numCpus, 2);
    EXPECT_EQ(s.numQueues, 1);
    ASSERT_EQ(s.windows.size(), 3u);

    EXPECT_EQ(s.windows[0].start, 0u);
    EXPECT_EQ(s.windows[0].end, 100u);
    EXPECT_EQ(s.windowEvent(0, prof::Event::Cycles), 5u);
    EXPECT_EQ(s.windowEvent(1, prof::Event::Cycles), 7u);
    EXPECT_EQ(s.windows[1].rxFramesPerQueue[0], 3u);
    EXPECT_EQ(s.windows[2].start, 200u);
    EXPECT_EQ(s.windows[2].end, 250u);
    EXPECT_EQ(s.windowEvent(2, prof::Event::Cycles), 2u);

    // The telescoping invariant, and per-cell attribution.
    EXPECT_EQ(s.totalEvent(prof::Event::Cycles),
              acct.total(prof::Event::Cycles));
    EXPECT_EQ(s.delta(1, 1, prof::Bin::User, prof::Event::Cycles),
              acct.byBinCpu(1, prof::Bin::User, prof::Event::Cycles));
}

TEST(IntervalRecorder, StartResetsPriorWindows)
{
    sim::EventQueue eq;
    prof::BinAccounting acct(1);
    prof::IntervalRecorder rec(eq, acct, 100, 1,
                               [](int) { return 0ull; });
    rec.start();
    acct.add(0, prof::FuncId::TcpAck, prof::Event::Cycles, 1);
    eq.runUntil(150);
    rec.finalize();
    ASSERT_EQ(rec.series().windows.size(), 2u);

    // Re-arming drops the old windows and rebases on the *current*
    // counter values: the old counts must not leak into new deltas.
    rec.start();
    eq.runUntil(eq.now() + 100);
    rec.finalize();
    const prof::IntervalSeries &s = rec.series();
    EXPECT_EQ(s.totalEvent(prof::Event::Cycles), 0u);
}

// ---------------------------------------------------------------------
// sim::TimelineTracer
// ---------------------------------------------------------------------

TEST(TimelineTracer, WritesValidChromeTraceWithMonotonicTimestamps)
{
    sim::TimelineTracer tl;
    // Buffered deliberately out of time order: the writer must sort.
    tl.complete(sim::TraceFlag::Irq, 0, 2000, 500, "irq:nic0");
    tl.instant(sim::TraceFlag::Sched, 0, 1000, "switch:ttcp0");
    tl.asyncBegin(sim::TraceFlag::Tcp, (1ull << 32) | 7, 1500,
                  "pkt:conn1");
    tl.asyncEnd(sim::TraceFlag::Tcp, (1ull << 32) | 7, 2500,
                "pkt:conn1");
    EXPECT_EQ(tl.eventCount(), 4u);

    std::ostringstream os;
    tl.writeJson(os, 2.0e9); // 2 GHz: 2000 ticks = 1 us

    const core::json::Value root = core::json::parse(os.str());
    ASSERT_TRUE(root.isObject());
    const core::json::Value &evs = root.field("traceEvents");
    ASSERT_TRUE(evs.isArray());

    double last_ts_tid0 = -1.0;
    std::size_t seen = 0;
    for (const core::json::Value &e : evs.items) {
        if (e.str("ph") == "M")
            continue;
        ++seen;
        EXPECT_EQ(static_cast<int>(e.num("pid")), 0);
        if (static_cast<int>(e.num("tid")) == 0) {
            EXPECT_GE(e.num("ts"), last_ts_tid0);
            last_ts_tid0 = e.num("ts");
        }
    }
    EXPECT_EQ(seen, 4u);

    // Spot-check the us conversion and the async/flow-row mapping.
    EXPECT_NE(os.str().find("\"ts\":0.500000"), std::string::npos);
    EXPECT_NE(os.str().find("\"tid\":1001"), std::string::npos);
    EXPECT_NE(os.str().find("flow 1"), std::string::npos);
}

TEST(TimelineTracer, CategoryMaskFiltersAndClearDrops)
{
    sim::TimelineTracer tl(
        static_cast<std::uint32_t>(sim::TraceFlag::Irq));
    EXPECT_TRUE(tl.wants(sim::TraceFlag::Irq));
    EXPECT_FALSE(tl.wants(sim::TraceFlag::Sched));

    tl.instant(sim::TraceFlag::Sched, 0, 10, "dropped");
    tl.instant(sim::TraceFlag::Irq, 0, 20, "kept");
    EXPECT_EQ(tl.eventCount(), 1u);

    tl.clear();
    EXPECT_EQ(tl.eventCount(), 0u);
}

TEST(TraceFlags, ParseSpecBuildsMasks)
{
    EXPECT_EQ(sim::parseTraceFlags(nullptr), 0u);
    EXPECT_EQ(sim::parseTraceFlags(""), 0u);
    EXPECT_EQ(sim::parseTraceFlags("all"),
              static_cast<std::uint32_t>(sim::TraceFlag::All));
    EXPECT_EQ(sim::parseTraceFlags("irq,sched"),
              static_cast<std::uint32_t>(sim::TraceFlag::Irq) |
                  static_cast<std::uint32_t>(sim::TraceFlag::Sched));
}

// ---------------------------------------------------------------------
// core::json
// ---------------------------------------------------------------------

TEST(Json, ParsesNestedDocument)
{
    const core::json::Value v = core::json::parse(
        "{\"a\": [1, 2.5, -3], \"s\": \"x\\ny\", \"o\": {\"t\": true, "
        "\"n\": null}}");
    ASSERT_TRUE(v.isObject());
    const core::json::Value &a = v.field("a");
    ASSERT_TRUE(a.isArray());
    ASSERT_EQ(a.items.size(), 3u);
    EXPECT_DOUBLE_EQ(a.items[1].number, 2.5);
    EXPECT_DOUBLE_EQ(a.items[2].number, -3.0);
    EXPECT_EQ(v.str("s"), "x\ny");
    EXPECT_TRUE(v.field("o").field("t").boolean);
}

TEST(Json, U64RoundTripsAboveDoubleMantissa)
{
    // 2^53 + 1 is not representable as a double; the u64 accessor must
    // re-parse the raw token instead of casting the double.
    const core::json::Value v =
        core::json::parse("{\"big\": 9007199254740993}");
    EXPECT_EQ(v.u64("big"), 9007199254740993ull);
}

TEST(Json, RejectsMalformedDocuments)
{
    EXPECT_THROW(core::json::parse(""), std::runtime_error);
    EXPECT_THROW(core::json::parse("{"), std::runtime_error);
    EXPECT_THROW(core::json::parse("{\"a\": }"), std::runtime_error);
    EXPECT_THROW(core::json::parse("[1, 2"), std::runtime_error);
    EXPECT_THROW(core::json::parse("{} trailing"), std::runtime_error);
    // Accessor type errors are runtime_errors too, not UB.
    const core::json::Value v = core::json::parse("{\"a\": 1}");
    EXPECT_THROW(v.str("a"), std::runtime_error);
    EXPECT_THROW(v.field("missing"), std::runtime_error);
}

TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack)
{
    // Two million '[' used to recurse until the stack ran out.
    EXPECT_THROW(core::json::parse(std::string(2'000'000, '[')),
                 std::runtime_error);
    auto nested = [](int depth) {
        std::string text;
        for (int i = 0; i < depth; ++i)
            text += i % 2 ? "[" : "{\"k\": ";
        text += "0";
        for (int i = depth - 1; i >= 0; --i)
            text += i % 2 ? "]" : "}";
        return text;
    };
    EXPECT_NO_THROW(core::json::parse(nested(64)));
    try {
        core::json::parse(nested(65));
        FAIL() << "65 levels parsed";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, DuplicateObjectKeyIsAnError)
{
    // Keeping either copy silently would let a corrupted record read
    // as a valid one.
    EXPECT_THROW(core::json::parse("{\"a\": 1, \"a\": 2}"),
                 std::runtime_error);
    EXPECT_THROW(core::json::parse("[{\"o\": {\"b\": 1, \"b\": 1}}]"),
                 std::runtime_error);
    EXPECT_NO_THROW(core::json::parse("{\"a\": {\"a\": 1}, \"b\": 2}"));
}

TEST(Json, U64RejectsNegativeFractionalAndOutOfRange)
{
    // The old fallback cast the double: -1 read as 2^64-1, 1e30 hit
    // undefined behaviour, 1.5 read as 1.
    for (const char *tok : {"-1", "1e30", "1.5", "1e3", "-0",
                            "18446744073709551616"}) {
        const core::json::Value v =
            core::json::parse(std::string("{\"n\": ") + tok + "}");
        EXPECT_THROW(v.u64("n"), std::runtime_error) << tok;
        EXPECT_THROW(v.field("n").asU64(), std::runtime_error) << tok;
    }
    const core::json::Value max =
        core::json::parse("{\"n\": 18446744073709551615, \"s\": \"1\"}");
    EXPECT_EQ(max.u64("n"), 18446744073709551615ull);
    EXPECT_THROW(max.u64("s"), std::runtime_error);
}

} // namespace

/**
 * @file
 * Unit tests for the TLB and trace cache models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <tuple>
#include <vector>

#include "src/mem/tlb.hh"
#include "src/mem/trace_cache.hh"
#include "src/sim/random.hh"

using namespace na;
using namespace na::mem;

namespace {

TEST(Tlb, WalkThenHit)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 4);
    EXPECT_FALSE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1000));
    EXPECT_TRUE(tlb.access(0x1fff)); // same page
    EXPECT_FALSE(tlb.access(0x2000)); // next page
    EXPECT_EQ(tlb.walks.value(), 2.0);
    EXPECT_EQ(tlb.hits.value(), 2.0);
}

TEST(Tlb, LruEvictionAtCapacity)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.access(0x0000);        // refresh page 0
    tlb.access(0x2000);        // evicts page 1
    EXPECT_TRUE(tlb.resident(0x0000));
    EXPECT_FALSE(tlb.resident(0x1000));
    EXPECT_TRUE(tlb.resident(0x2000));
    EXPECT_EQ(tlb.size(), 2u);
}

TEST(Tlb, FlushAllEmpties)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 8);
    tlb.access(0x1000);
    tlb.access(0x2000);
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_FALSE(tlb.resident(0x1000));
}

TEST(Tlb, ResidentDoesNotRefreshLru)
{
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", 2);
    tlb.access(0x0000);
    tlb.access(0x1000);
    tlb.resident(0x0000); // must not refresh
    tlb.access(0x2000);   // evicts page 0 (still LRU)
    EXPECT_FALSE(tlb.resident(0x0000));
}

TEST(TlbDeath, ZeroEntriesIsFatal)
{
    stats::Group root(nullptr, "");
    EXPECT_EXIT(Tlb(&root, "tlb", 0), ::testing::ExitedWithCode(1),
                "at least one entry");
}

/** Obviously-correct TLB: one list of pages, front == most recent. */
class RefTlb
{
  public:
    explicit RefTlb(unsigned entries) : entries(entries) {}

    bool
    access(std::uint64_t page)
    {
        auto it = std::find(lru.begin(), lru.end(), page);
        if (it != lru.end()) {
            lru.splice(lru.begin(), lru, it);
            return true;
        }
        if (lru.size() >= entries)
            lru.pop_back();
        lru.push_front(page);
        return false;
    }

    bool
    resident(std::uint64_t page) const
    {
        return std::find(lru.begin(), lru.end(), page) != lru.end();
    }

    void flush() { lru.clear(); }
    std::size_t size() const { return lru.size(); }

  private:
    unsigned entries;
    std::list<std::uint64_t> lru;
};

using TlbReplay = std::tuple<unsigned, unsigned, std::uint64_t>;
// (entries, pages in the footprint, seed)

class TlbVsReference : public ::testing::TestWithParam<TlbReplay>
{
};

TEST_P(TlbVsReference, SeededReplayAgrees)
{
    const auto [entries, pages, seed] = GetParam();
    stats::Group root(nullptr, "");
    Tlb tlb(&root, "tlb", entries);
    RefTlb ref(entries);
    sim::Random rng(seed);
    std::uint64_t ref_hits = 0;
    std::uint64_t ref_walks = 0;

    for (int i = 0; i < 30000; ++i) {
        // Hot pages, the alternating source/destination pattern of a
        // copy, and a cold tail; pages spread over the address space so
        // the index sees scattered keys.
        std::uint64_t page = rng.range(0, pages - 1);
        if (rng.chance(0.3))
            page = (i & 1) ? 3 : 7;
        page = page * 0x10001 + (page & 1 ? 0x100000 : 0);
        const sim::Addr addr = (page << Tlb::pageShift) +
                               rng.range(0, (1u << Tlb::pageShift) - 1);
        if (rng.chance(0.1)) {
            // resident() must answer without refreshing LRU order.
            ASSERT_EQ(tlb.resident(addr), ref.resident(page))
                << "resident divergence at step " << i;
            continue;
        }
        if (i % 7919 == 7918) {
            tlb.flushAll();
            ref.flush();
        }
        const bool hit = tlb.access(addr);
        ASSERT_EQ(hit, ref.access(page)) << "divergence at step " << i;
        ++(hit ? ref_hits : ref_walks);
        ASSERT_EQ(tlb.size(), ref.size()) << "size divergence at step "
                                          << i;
    }
    EXPECT_EQ(tlb.hits.value(), static_cast<double>(ref_hits));
    EXPECT_EQ(tlb.walks.value(), static_cast<double>(ref_walks));
    EXPECT_LE(tlb.size(), entries);
}

INSTANTIATE_TEST_SUITE_P(
    Replays, TlbVsReference,
    ::testing::Values(TlbReplay{1, 4, 1}, TlbReplay{1, 1, 2},
                      TlbReplay{2, 5, 3}, TlbReplay{64, 48, 4},
                      TlbReplay{64, 96, 5}, TlbReplay{64, 1000, 6},
                      TlbReplay{7, 20, 7}, TlbReplay{128, 200, 8}),
    [](const ::testing::TestParamInfo<TlbReplay> &info) {
        return "entries" + std::to_string(std::get<0>(info.param)) +
               "_pages" + std::to_string(std::get<1>(info.param)) +
               "_seed" + std::to_string(std::get<2>(info.param));
    });

/** Obviously-correct trace cache: list of (func, bytes), front == MRU. */
class RefTraceCache
{
  public:
    explicit RefTraceCache(std::uint64_t capacity) : capacity(capacity) {}

    unsigned
    access(std::uint16_t func, std::uint32_t bytes)
    {
        auto it = std::find_if(lru.begin(), lru.end(),
                               [&](const auto &e) { return e.first == func; });
        if (it != lru.end()) {
            lru.splice(lru.begin(), lru, it);
            return 0;
        }
        const unsigned lines = (bytes + 63) / 64;
        if (bytes > capacity)
            return lines;
        while (used + bytes > capacity && !lru.empty()) {
            used -= lru.back().second;
            lru.pop_back();
        }
        lru.emplace_front(func, bytes);
        used += bytes;
        return lines;
    }

    bool
    resident(std::uint16_t func) const
    {
        return std::find_if(lru.begin(), lru.end(), [&](const auto &e) {
                   return e.first == func;
               }) != lru.end();
    }

    void
    flush()
    {
        lru.clear();
        used = 0;
    }

    std::uint64_t usedBytes() const { return used; }

  private:
    std::uint64_t capacity;
    std::uint64_t used = 0;
    std::list<std::pair<std::uint16_t, std::uint32_t>> lru;
};

using TcReplay = std::tuple<std::uint64_t, unsigned, std::uint64_t>;
// (capacity bytes, functions, seed)

class TraceCacheVsReference : public ::testing::TestWithParam<TcReplay>
{
};

TEST_P(TraceCacheVsReference, SeededReplayAgrees)
{
    const auto [capacity, funcs, seed] = GetParam();
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", capacity);
    RefTraceCache ref(capacity);
    sim::Random rng(seed);

    // Each function keeps one footprint; a few exceed the capacity and
    // must stream without ever becoming resident.
    std::vector<std::uint32_t> footprint(funcs);
    for (unsigned f = 0; f < funcs; ++f) {
        footprint[f] = static_cast<std::uint32_t>(
            rng.chance(0.05) ? capacity + 1 + rng.range(0, 4096)
                             : rng.range(0, 2048));
    }
    std::uint64_t ref_lines = 0;
    for (int i = 0; i < 30000; ++i) {
        const auto f = static_cast<std::uint16_t>(
            rng.chance(0.5) ? rng.range(0, 3) : rng.range(0, funcs - 1));
        if (rng.chance(0.1)) {
            ASSERT_EQ(tc.resident(f), ref.resident(f))
                << "resident divergence at step " << i;
            continue;
        }
        if (i % 9973 == 9972) {
            tc.flushAll();
            ref.flush();
        }
        const unsigned want = ref.access(f, footprint[f]);
        ASSERT_EQ(tc.access(f, footprint[f]), want)
            << "divergence at step " << i << " func " << f;
        ref_lines += want;
        ASSERT_EQ(tc.usedBytes(), ref.usedBytes()) << "at step " << i;
        ASSERT_LE(tc.usedBytes(), capacity);
    }
    EXPECT_EQ(tc.misses.value(), static_cast<double>(ref_lines));
}

INSTANTIATE_TEST_SUITE_P(
    Replays, TraceCacheVsReference,
    ::testing::Values(TcReplay{2048, 6, 1}, TcReplay{4096, 40, 2},
                      TcReplay{48 * 1024, 120, 3},
                      TcReplay{48 * 1024, 300, 4}, TcReplay{512, 10, 5}),
    [](const ::testing::TestParamInfo<TcReplay> &info) {
        return "cap" + std::to_string(std::get<0>(info.param)) +
               "_funcs" + std::to_string(std::get<1>(info.param)) +
               "_seed" + std::to_string(std::get<2>(info.param));
    });

TEST(TraceCache, ZeroByteFootprintIsResident)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 256);
    EXPECT_EQ(tc.access(5, 0), 0u);
    EXPECT_TRUE(tc.resident(5));
    EXPECT_EQ(tc.usedBytes(), 0u);
}

TEST(TraceCache, HitAfterBuild)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 1024);
    EXPECT_GT(tc.access(1, 256), 0u);
    EXPECT_EQ(tc.access(1, 256), 0u);
    EXPECT_TRUE(tc.resident(1));
    EXPECT_EQ(tc.usedBytes(), 256u);
}

TEST(TraceCache, MissCountsTraceLines)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 4096);
    EXPECT_EQ(tc.access(1, 256), 4u);  // 256/64
    EXPECT_EQ(tc.access(2, 100), 2u);  // ceil(100/64)
}

TEST(TraceCache, EvictsLruWhenFull)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 512);
    tc.access(1, 256);
    tc.access(2, 256);
    tc.access(1, 256); // refresh 1
    tc.access(3, 256); // evicts 2
    EXPECT_TRUE(tc.resident(1));
    EXPECT_FALSE(tc.resident(2));
    EXPECT_TRUE(tc.resident(3));
    EXPECT_LE(tc.usedBytes(), 512u);
}

TEST(TraceCache, OversizedFunctionStreams)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 256);
    EXPECT_EQ(tc.access(1, 1024), 16u);
    EXPECT_FALSE(tc.resident(1)); // never resident
    EXPECT_EQ(tc.access(1, 1024), 16u); // misses again
    EXPECT_EQ(tc.usedBytes(), 0u);
}

TEST(TraceCache, FlushAllEmpties)
{
    stats::Group root(nullptr, "");
    TraceCache tc(&root, "tc", 1024);
    tc.access(1, 512);
    tc.flushAll();
    EXPECT_FALSE(tc.resident(1));
    EXPECT_EQ(tc.usedBytes(), 0u);
}

} // namespace

/**
 * @file
 * Property test: the set-associative cache model against a simple
 * reference implementation (per-set LRU lists), over random access
 * streams swept across geometries and seeds.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <optional>
#include <tuple>

#include "src/mem/cache.hh"
#include "src/sim/random.hh"

using namespace na;
using namespace na::mem;

namespace {

/** Obviously-correct reference: per-set list, front == MRU. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned assoc, unsigned line)
        : sets(sets), assoc(assoc), line(line)
    {
    }

    bool
    lookup(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        const sim::Addr la = lineOf(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == la) {
                set.splice(set.begin(), set, it);
                return true;
            }
        }
        return false;
    }

    /** @return the evicted line address, if the set was full. */
    std::optional<sim::Addr>
    insert(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        const sim::Addr la = lineOf(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == la) {
                set.splice(set.begin(), set, it);
                return std::nullopt;
            }
        }
        std::optional<sim::Addr> victim;
        if (set.size() >= assoc) {
            victim = set.back();
            set.pop_back();
        }
        set.push_front(la);
        return victim;
    }

    void clear() { data.clear(); }

    bool
    present(sim::Addr addr) const
    {
        auto it = data.find(setOf(addr));
        if (it == data.end())
            return false;
        const sim::Addr la = lineOf(addr);
        for (sim::Addr v : it->second) {
            if (v == la)
                return true;
        }
        return false;
    }

    void
    erase(sim::Addr addr)
    {
        auto &set = data[setOf(addr)];
        set.remove(lineOf(addr));
    }

  private:
    unsigned sets;
    unsigned assoc;
    unsigned line;
    std::map<unsigned, std::list<sim::Addr>> data;

    sim::Addr lineOf(sim::Addr a) const { return a / line * line; }
    unsigned setOf(sim::Addr a) const
    {
        return static_cast<unsigned>((a / line) % sets);
    }
};

using Geometry = std::tuple<unsigned, unsigned, std::uint64_t>;
// (assoc, lineBytes, seed)

class CacheVsReference : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheVsReference, RandomStreamAgrees)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 16;
    stats::Group root(nullptr, "");
    Cache cache(&root, "c",
                static_cast<std::uint64_t>(sets) * assoc * line, assoc,
                line);
    RefCache ref(sets, assoc, line);
    sim::Random rng(seed);

    for (int i = 0; i < 20000; ++i) {
        // Skewed address stream: hot region + cold tail.
        const sim::Addr addr =
            rng.chance(0.7) ? rng.range(0, sets * assoc * line / 2)
                            : rng.range(0, 1u << 20);
        const bool hit = cache.lookup(addr) != LineState::Invalid;
        const bool ref_hit = ref.lookup(addr);
        ASSERT_EQ(hit, ref_hit) << "divergence at access " << i
                                << " addr " << addr;
        if (!hit) {
            cache.insert(addr, LineState::Shared);
            ref.insert(addr);
        }
    }
}

TEST_P(CacheVsReference, InvalidationsAgree)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 8;
    stats::Group root(nullptr, "");
    Cache cache(&root, "c",
                static_cast<std::uint64_t>(sets) * assoc * line, assoc,
                line);
    RefCache ref(sets, assoc, line);
    sim::Random rng(seed * 31 + 7);

    for (int i = 0; i < 8000; ++i) {
        const sim::Addr addr = rng.range(0, 1u << 16);
        if (rng.chance(0.2)) {
            // Random snoop invalidation, mirrored in the reference.
            ASSERT_EQ(cache.probe(addr) != LineState::Invalid,
                      ref.present(addr));
            cache.invalidate(addr);
            ref.erase(addr);
        } else {
            const bool hit = cache.lookup(addr) != LineState::Invalid;
            const bool ref_hit = ref.lookup(addr);
            ASSERT_EQ(hit, ref_hit) << "divergence at access " << i;
            if (!hit) {
                cache.insert(addr, LineState::Shared);
                ref.insert(addr);
            }
        }
    }
    EXPECT_LE(cache.validLines(),
              static_cast<std::uint64_t>(sets) * assoc);
}

/**
 * The merged findOrInsert fast path against the composed
 * lookup -> insert -> setModified sequence it replaced: same hit/miss
 * answers, same victims, same counters, on a mixed stream of reads,
 * writes, snoop invalidations, and snoop downgrades. This is the
 * equivalence the hierarchy's bit-identical results rest on.
 */
TEST_P(CacheVsReference, FindOrInsertMatchesComposedPath)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 8;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(sets) * assoc * line;
    stats::Group root(nullptr, "");
    Cache merged(&root, "m", bytes, assoc, line);
    Cache composed(&root, "c", bytes, assoc, line);
    sim::Random rng(seed * 97 + 13);

    for (int i = 0; i < 12000; ++i) {
        const sim::Addr addr = rng.range(0, 1u << 16);
        if (rng.chance(0.08)) {
            ASSERT_EQ(merged.invalidate(addr), composed.invalidate(addr))
                << "invalidate divergence at access " << i;
            continue;
        }
        if (rng.chance(0.08)) {
            ASSERT_EQ(merged.downgrade(addr), composed.downgrade(addr))
                << "downgrade divergence at access " << i;
            continue;
        }
        const bool write = rng.chance(0.3);
        const LineState want =
            write ? LineState::Modified : LineState::Shared;

        // Composed legacy path (what CacheHierarchy::access used to do).
        const LineState prev = composed.lookup(addr);
        Cache::Victim victim;
        if (prev == LineState::Invalid)
            victim = composed.insert(addr, want);
        else if (write && prev != LineState::Modified)
            composed.setModified(addr);

        const auto r = merged.findOrInsert(addr, want);
        ASSERT_EQ(r.prev, prev) << "state divergence at access " << i
                                << " addr " << addr;
        ASSERT_EQ(r.victim.valid, victim.valid)
            << "victim divergence at access " << i;
        if (victim.valid) {
            ASSERT_EQ(r.victim.lineAddr, victim.lineAddr)
                << "victim address divergence at access " << i;
            ASSERT_EQ(r.victim.dirty, victim.dirty)
                << "victim dirtiness divergence at access " << i;
        }
    }

    EXPECT_EQ(merged.hits.value(), composed.hits.value());
    EXPECT_EQ(merged.misses.value(), composed.misses.value());
    EXPECT_EQ(merged.evictions.value(), composed.evictions.value());
    EXPECT_EQ(merged.writebacks.value(), composed.writebacks.value());
    EXPECT_EQ(merged.snoopInvalidations.value(),
              composed.snoopInvalidations.value());
    EXPECT_EQ(merged.validLines(), composed.validLines());
}

/**
 * Every victim the compact rank bytes pick is the reference's LRU line,
 * on a hit-heavy stream (so ranks age through every value) with
 * invalidations punching holes (refilled by first invalid way) and
 * periodic flushes (ranks survive, tags do not).
 */
TEST_P(CacheVsReference, VictimsMatchReferenceLru)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 4;
    stats::Group root(nullptr, "");
    Cache cache(&root, "c",
                static_cast<std::uint64_t>(sets) * assoc * line, assoc,
                line);
    RefCache ref(sets, assoc, line);
    sim::Random rng(seed * 53 + 11);
    // A footprint of 1.5x the capacity keeps every set full and busy.
    const std::uint64_t span =
        static_cast<std::uint64_t>(sets) * assoc * line * 3 / 2;

    for (int i = 0; i < 20000; ++i) {
        const sim::Addr addr = rng.range(0, span - 1);
        if (i % 5000 == 4999) {
            cache.flushAll();
            ref.clear();
            continue;
        }
        if (rng.chance(0.05)) {
            ASSERT_EQ(cache.invalidate(addr) != LineState::Invalid,
                      ref.present(addr));
            ref.erase(addr);
            continue;
        }
        const bool hit = cache.lookup(addr) != LineState::Invalid;
        ASSERT_EQ(hit, ref.lookup(addr)) << "divergence at access " << i;
        if (hit)
            continue;
        const Cache::Victim v = cache.insert(addr, LineState::Shared);
        const std::optional<sim::Addr> ref_victim = ref.insert(addr);
        ASSERT_EQ(v.valid, ref_victim.has_value())
            << "victim divergence at access " << i;
        if (v.valid) {
            ASSERT_EQ(v.lineAddr, *ref_victim) << "at access " << i;
        }
    }
}

/**
 * fillAbsent() is insert() on a line a lookup just proved absent:
 * same victims, states, and counters over a mixed stream, with the
 * walk-free fill used only where the hierarchy uses it.
 */
TEST_P(CacheVsReference, FillAbsentMatchesInsertOnAbsentLine)
{
    const auto [assoc, line, seed] = GetParam();
    const unsigned sets = 8;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(sets) * assoc * line;
    stats::Group root(nullptr, "");
    Cache fast(&root, "f", bytes, assoc, line);
    Cache slow(&root, "s", bytes, assoc, line);
    sim::Random rng(seed * 211 + 5);

    for (int i = 0; i < 12000; ++i) {
        const sim::Addr addr = rng.range(0, 1u << 16);
        if (rng.chance(0.08)) {
            ASSERT_EQ(fast.invalidate(addr), slow.invalidate(addr));
            continue;
        }
        if (rng.chance(0.05)) {
            ASSERT_EQ(fast.downgrade(addr), slow.downgrade(addr));
            continue;
        }
        const LineState want =
            rng.chance(0.3) ? LineState::Modified : LineState::Shared;
        const LineState prev = slow.lookup(addr);
        ASSERT_EQ(fast.lookup(addr), prev) << "at access " << i;
        if (prev != LineState::Invalid)
            continue;
        const Cache::Victim a = fast.fillAbsent(addr, want);
        const Cache::Victim b = slow.insert(addr, want);
        ASSERT_EQ(a.valid, b.valid) << "at access " << i;
        ASSERT_EQ(a.lineAddr, b.lineAddr) << "at access " << i;
        ASSERT_EQ(a.dirty, b.dirty) << "at access " << i;
        ASSERT_EQ(fast.probe(addr), want);
    }
    EXPECT_EQ(fast.hits.value(), slow.hits.value());
    EXPECT_EQ(fast.misses.value(), slow.misses.value());
    EXPECT_EQ(fast.evictions.value(), slow.evictions.value());
    EXPECT_EQ(fast.writebacks.value(), slow.writebacks.value());
    EXPECT_EQ(fast.validLines(), slow.validLines());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheVsReference,
    ::testing::Values(Geometry{1, 64, 1}, Geometry{2, 64, 2},
                      Geometry{4, 64, 3}, Geometry{8, 64, 4},
                      Geometry{4, 32, 5}, Geometry{4, 128, 6},
                      Geometry{16, 64, 7}, Geometry{8, 128, 8},
                      Geometry{3, 64, 9}, Geometry{12, 64, 10}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return "assoc" + std::to_string(std::get<0>(info.param)) +
               "_line" + std::to_string(std::get<1>(info.param)) +
               "_seed" + std::to_string(std::get<2>(info.param));
    });

} // namespace

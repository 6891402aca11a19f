#include "src/mem/cache.hh"

#include <bit>

#include "src/sim/logging.hh"

namespace na::mem {

namespace {

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

static_assert(Cache::setBytes(8) == Cache::hostLineBytes,
              "an 8-way set must span exactly one host cache line");
static_assert(Cache::setBytes(4) == Cache::hostLineBytes / 2,
              "a 4-way set must span half a host cache line");

Cache::Cache(stats::Group *parent, const std::string &name,
             std::uint64_t size_bytes, unsigned assoc_ways,
             unsigned line_bytes)
    : stats::Group(parent, name),
      hits(this, "hits", "lookups that hit"),
      misses(this, "misses", "lookups that missed"),
      evictions(this, "evictions", "lines displaced by fills"),
      writebacks(this, "writebacks", "dirty lines displaced"),
      snoopInvalidations(this, "snoop_invalidations",
                         "lines invalidated by remote writes"),
      lineSize(line_bytes), assoc(assoc_ways)
{
    if (!isPow2(line_bytes))
        sim::fatal("cache line size %u not a power of two", line_bytes);
    // Ranks are bytes that must stay below restRank.
    if (assoc_ways == 0 || assoc_ways > restRank)
        sim::fatal("cache associativity %u outside [1, %u]", assoc_ways,
                   unsigned{restRank});
    if (size_bytes % (static_cast<std::uint64_t>(assoc_ways) * line_bytes))
        sim::fatal("cache size %llu not divisible by assoc*line",
                   (unsigned long long)size_bytes);
    numSets = static_cast<unsigned>(
        size_bytes / (static_cast<std::uint64_t>(assoc_ways) * line_bytes));
    if (!isPow2(numSets))
        sim::fatal("cache set count %u not a power of two", numSets);
    lineShift = static_cast<unsigned>(
        std::countr_zero(static_cast<std::uint64_t>(line_bytes)));
    setMask = numSets - 1;
    setShift = static_cast<unsigned>(std::countr_zero(setBytes(assoc) / 4));
    rankChunks = (assoc + 7) / 8;

    const std::size_t words = static_cast<std::size_t>(numSets) << setShift;
    table.reset(new (std::align_val_t{hostLineBytes}) std::uint32_t[words]);
    std::memset(table.get(), 0, words * 4);
    // Every set starts as the rank permutation 0..assoc-1 by way. Any
    // permutation would do: a set fills every way before it first
    // picks a victim, so every rank is rewritten by then.
    for (unsigned s = 0; s < numSets; ++s) {
        unsigned char *rank =
            bytesOf(table.get() + (static_cast<std::size_t>(s) << setShift)) +
            rankOffset(assoc);
        std::memset(rank, restRank, 8u * rankChunks);
        for (unsigned w = 0; w < assoc; ++w)
            rank[w] = static_cast<unsigned char>(w);
    }
}

void
Cache::addressOutOfRange(sim::Addr addr) const
{
    sim::panic("cache %s: address %llx beyond the %u-bit line number range",
               groupName().c_str(), (unsigned long long)addr,
               lineNumberBits);
}

unsigned
Cache::lruWay(std::uint32_t *set) const
{
    // The LRU way holds the highest rank, assoc-1.
    const unsigned char *rank = bytesOf(set) + rankOffset(assoc);
    unsigned way = 0;
    while (rank[way] != assoc - 1)
        ++way;
    return way;
}

Cache::Victim
Cache::fill(std::uint32_t key, LineState state)
{
    Victim victim;
    std::uint32_t *const set = setOf(key);
    // The first invalid way by index, else the LRU way.
    unsigned way = 0;
    while (way < assoc && stateOf(set[way]) != LineState::Invalid)
        ++way;
    if (way == assoc) {
        way = lruWay(set);
        victim.valid = true;
        victim.lineAddr = static_cast<sim::Addr>(set[way] >> 2)
                          << lineShift;
        victim.dirty = stateOf(set[way]) == LineState::Modified;
        ++evictions;
        if (victim.dirty)
            ++writebacks;
    }
    set[way] = key | static_cast<std::uint32_t>(state);
    touch(set + way);
    mruWord = static_cast<std::size_t>(set + way - table.get());
    return victim;
}

Cache::Victim
Cache::insert(sim::Addr addr, LineState state)
{
    const std::uint32_t key = tagKey(addr);
    if (std::uint32_t *word = findWord(key)) {
        // Upgrade in place; never downgrade Modified to Shared here.
        if (state == LineState::Modified)
            setState(*word, LineState::Modified);
        touch(word);
        return Victim{};
    }
    return fill(key, state);
}

Cache::Victim
Cache::fillAbsent(sim::Addr addr, LineState state)
{
    return fill(tagKey(addr), state);
}

Cache::FindOrInsertResult
Cache::findOrInsert(sim::Addr addr, LineState state)
{
    FindOrInsertResult res;
    const std::uint32_t key = tagKey(addr);
    if (std::uint32_t *word = findWord(key)) {
        res.prev = stateOf(*word);
        ++hits;
        if (state == LineState::Modified)
            setState(*word, LineState::Modified);
        touch(word);
        return res;
    }
    ++misses;
    res.victim = fill(key, state);
    return res;
}

void
Cache::setModified(sim::Addr addr)
{
    std::uint32_t *word = findWord(tagKey(addr));
    if (!word)
        sim::panic("setModified on absent line %llx",
                   (unsigned long long)addr);
    setState(*word, LineState::Modified);
}

void
Cache::flushAll()
{
    for (unsigned s = 0; s < numSets; ++s) {
        std::uint32_t *set =
            table.get() + (static_cast<std::size_t>(s) << setShift);
        for (unsigned w = 0; w < assoc; ++w)
            setState(set[w], LineState::Invalid);
    }
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t n = 0;
    for (unsigned s = 0; s < numSets; ++s) {
        const std::uint32_t *set =
            table.get() + (static_cast<std::size_t>(s) << setShift);
        for (unsigned w = 0; w < assoc; ++w) {
            if (stateOf(set[w]) != LineState::Invalid)
                ++n;
        }
    }
    return n;
}

} // namespace na::mem

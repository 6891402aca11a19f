/**
 * @file
 * A set-associative, write-back cache model with MSI-style line states.
 *
 * Used for all three data levels (L1D, L2, L3). Lookup and fill operate
 * on line addresses; timing is composed by mem::CacheHierarchy. The model
 * tracks true LRU within each set.
 *
 * Storage is compact so the model's own metadata stays in the host's
 * caches: one set is `assoc` 32-bit tag words followed by one
 * recency-rank byte per way, padded to a power-of-two stride inside a
 * 64-byte-aligned table. An 8-way set is exactly one 64-byte host line.
 */

#ifndef NETAFFINITY_MEM_CACHE_HH
#define NETAFFINITY_MEM_CACHE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <string>

#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::mem {

/** Coherence state of a cached line (MSI subset of MESI). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Modified,
};

/**
 * One set-associative cache level.
 *
 * All addresses passed in are byte addresses; the cache masks them to
 * line granularity internally. Line numbers (address / line size) must
 * fit in lineNumberBits bits; a larger address is a simulator bug and
 * panics.
 */
class Cache : public stats::Group
{
  public:
    /** Width of the line number held in a tag word. */
    static constexpr unsigned lineNumberBits = 30;

    /** Alignment of the set table: one host cache line. */
    static constexpr std::size_t hostLineBytes = 64;

    /**
     * Bytes one set occupies in the table: @p assoc tag words, then the
     * rank bytes rounded up to whole 8-byte words; the total is padded
     * to a power of two so no set straddles a host line.
     */
    static constexpr std::size_t
    setBytes(unsigned assoc)
    {
        const std::size_t used =
            rankOffset(assoc) + 8u * ((assoc + 7) / 8);
        std::size_t stride = 8;
        while (stride < used)
            stride <<= 1;
        return stride;
    }

    /**
     * @param parent stats parent group
     * @param name cache name, e.g. "l2"
     * @param size_bytes total capacity
     * @param assoc ways per set (must divide size/lineSize)
     * @param line_bytes cache line size (64 for the modeled Xeons)
     */
    Cache(stats::Group *parent, const std::string &name,
          std::uint64_t size_bytes, unsigned assoc,
          unsigned line_bytes = 64);

    /**
     * Look up a line; updates LRU on hit.
     * @return state found (Invalid means miss).
     */
    LineState lookup(sim::Addr addr);

    /** @return state without touching LRU (for snoops / tests). */
    LineState probe(sim::Addr addr) const;

    /** Result of inserting a line: what got evicted, if anything. */
    struct Victim
    {
        bool valid = false;      ///< an existing line was displaced
        sim::Addr lineAddr = 0;  ///< address of the displaced line
        bool dirty = false;      ///< displaced line was Modified
    };

    /**
     * Insert (fill) a line in @p state, evicting the LRU way if the set
     * is full. If the line is already present its state is upgraded.
     * @return the displaced victim, if any.
     */
    Victim insert(sim::Addr addr, LineState state);

    /**
     * insert() for a line the caller has proved absent (a lookup that
     * missed, with nothing since that could fill it here): skips the
     * presence walk and goes straight to the fill. Calling it on a
     * present line would install a duplicate tag.
     */
    Victim fillAbsent(sim::Addr addr, LineState state);

    /** Outcome of findOrInsert(): previous state plus any victim. */
    struct FindOrInsertResult
    {
        LineState prev = LineState::Invalid; ///< state before the call
        Victim victim;                       ///< displaced line on miss

        /** @return true if the line was already present. */
        bool hit() const { return prev != LineState::Invalid; }
    };

    /**
     * Single-walk equivalent of `lookup(); if miss then insert(state)`:
     * counts one hit or one miss, touches LRU exactly once, fills (and
     * evicts, counting evictions/writebacks) only on a miss, and on a
     * hit upgrades to Modified iff @p state is Modified (never
     * downgrades). The observable counters and final tag state are
     * bit-identical to the composed pair; the set is scanned once
     * instead of twice.
     */
    FindOrInsertResult findOrInsert(sim::Addr addr, LineState state);

    /**
     * Single-walk equivalent of `probe() != Invalid ? setModified() :
     * false` — no LRU touch, no hit/miss counting.
     * @return true if the line was present (and is now Modified).
     */
    bool setModifiedIfPresent(sim::Addr addr);

    /**
     * Invalidate a line (snoop or back-invalidate).
     * @return previous state (Invalid if it was not present).
     */
    LineState invalidate(sim::Addr addr);

    /**
     * Downgrade Modified -> Shared (remote read snoop hit).
     * @return true if the line was present.
     */
    bool downgrade(sim::Addr addr);

    /** Mark an already-present line Modified (write hit). */
    void setModified(sim::Addr addr);

    /** Drop every line (e.g. between experiment phases). */
    void flushAll();

    /** @return number of valid lines currently cached. */
    std::uint64_t validLines() const;

    unsigned lineBytes() const { return lineSize; }
    std::uint64_t sizeBytes() const { return numSets * assoc * lineSize; }
    unsigned associativity() const { return assoc; }
    unsigned sets() const { return numSets; }

    /** @name Statistics @{ */
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions;
    stats::Scalar writebacks;
    stats::Scalar snoopInvalidations;
    /** @} */

  private:
    struct AlignedFree
    {
        void
        operator()(std::uint32_t *p) const
        {
            ::operator delete[](p, std::align_val_t{hostLineBytes});
        }
    };

    static constexpr std::uint32_t stateMask = 3;
    static constexpr std::uint64_t ones = 0x0101010101010101ULL;

    /** Rank padding byte: never below a live rank, so never ages. */
    static constexpr unsigned char restRank = 0x7f;

    static constexpr std::uint64_t low7 = 0x7f * ones;
    static constexpr std::uint64_t high = 0x80 * ones;

    /** @return byte offset of a set's first rank byte. */
    static constexpr std::size_t
    rankOffset(unsigned assoc)
    {
        return (4u * assoc + 7) / 8 * 8;
    }

    unsigned lineSize;
    unsigned assoc;
    unsigned numSets;
    unsigned lineShift;
    unsigned setMask;
    unsigned setShift;   ///< log2 of the set stride in 32-bit words
    unsigned rankChunks; ///< 8-byte words of rank bytes per set

    /**
     * numSets << setShift words. Set s starts at word s << setShift:
     *  - one tag word `lineNumber << 2 | state` per way (state 0 is
     *    Invalid, so a zeroed word is an empty way);
     *  - from rankOffset(assoc), one recency-rank byte per way (0 ==
     *    most recently used, the ranks of a set are a permutation of
     *    0..assoc-1), padded with restRank to whole 8-byte words.
     */
    std::unique_ptr<std::uint32_t[], AlignedFree> table;

    /**
     * Word index of the most recently found way: a (set, way) memo in
     * front of the set walk. Self-validating: the tag word holds the
     * full line number, so a match on a valid word is exactly what the
     * walk would return, and no invalidation hook is needed.
     */
    std::size_t mruWord = 0;

    /** @return tag word for @p addr with the state bits clear. */
    std::uint32_t
    tagKey(sim::Addr addr) const
    {
        const sim::Addr ln = addr >> lineShift;
        if (ln >> lineNumberBits) [[unlikely]]
            addressOutOfRange(addr);
        return static_cast<std::uint32_t>(ln) << 2;
    }

    [[noreturn]] void addressOutOfRange(sim::Addr addr) const;

    /** @return true if tag word @p word holds @p key in a valid state. */
    static bool
    holds(std::uint32_t word, std::uint32_t key)
    {
        // word ^ key is the state alone (1 or 2) iff the line numbers
        // match and the line is valid.
        return (word ^ key) - 1u < 2u;
    }

    static LineState
    stateOf(std::uint32_t word)
    {
        return static_cast<LineState>(word & stateMask);
    }

    static void
    setState(std::uint32_t &word, LineState state)
    {
        word = (word & ~stateMask) | static_cast<std::uint32_t>(state);
    }

    std::uint32_t *
    setOf(std::uint32_t key) const
    {
        return table.get() +
               (static_cast<std::size_t>((key >> 2) & setMask) << setShift);
    }

    /** @return the way of tag word @p word within its set. */
    unsigned
    wayOf(const std::uint32_t *word) const
    {
        return static_cast<unsigned>(
            static_cast<std::size_t>(word - table.get()) &
            ((std::size_t{1} << setShift) - 1));
    }

    static unsigned char *
    bytesOf(std::uint32_t *set)
    {
        return reinterpret_cast<unsigned char *>(set);
    }

    static std::uint64_t
    load64(const unsigned char *p)
    {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
    }

    static void
    store64(unsigned char *p, std::uint64_t v)
    {
        std::memcpy(p, &v, 8);
    }

    /** @return the way of @p set validly holding @p key, or assoc. */
    unsigned matchWay(const std::uint32_t *set, std::uint32_t key) const;

    /** @return the valid tag word holding @p key, or nullptr. */
    std::uint32_t *findWord(std::uint32_t key) const;

    /** Make the way of tag word @p word the set's most recent. */
    void touch(std::uint32_t *word);

    /** @return the least recently used way of a full @p set. */
    unsigned lruWay(std::uint32_t *set) const;

    /** Fill @p key (known absent) in @p state, evicting LRU if full. */
    Victim fill(std::uint32_t key, LineState state);
};

// The short hot-path methods live in the header so callers in other
// translation units (CacheHierarchy in particular) can inline them;
// profiling shows the call overhead alone dominates once the walks are
// memoized away.

inline unsigned
Cache::matchWay(const std::uint32_t *set, std::uint32_t key) const
{
    for (unsigned w = 0; w < assoc; ++w) {
        if (holds(set[w], key))
            return w;
    }
    return assoc;
}

inline std::uint32_t *
Cache::findWord(std::uint32_t key) const
{
    std::uint32_t *const memo = table.get() + mruWord;
    if (holds(*memo, key))
        return memo;
    std::uint32_t *const set = setOf(key);
    const unsigned way = matchWay(set, key);
    if (way == assoc)
        return nullptr;
    const_cast<Cache *>(this)->mruWord =
        static_cast<std::size_t>(set + way - table.get());
    return set + way;
}

inline void
Cache::touch(std::uint32_t *word)
{
    const unsigned way = wayOf(word);
    unsigned char *rank = bytesOf(word - way) + rankOffset(assoc);
    // Byte-parallel over whole 8-byte words of ranks (no byte ever
    // carries or borrows into its neighbour, so lane order does not
    // matter). Every rank below the touched way's rank r ages by one:
    // per byte, (0x7f + r) - x has its high bit set iff x < r, as
    // ranks and restRank stay below 0x80. The one byte equal to r is
    // the touched way's (ranks are a permutation, restRank exceeds
    // them all); it is found exactly with the carry-free zero-byte
    // test on x ^ r and cleared to 0.
    const std::uint64_t r = rank[way];
    const std::uint64_t below = (0x7fu + r) * ones;
    for (unsigned c = 0; c < rankChunks; ++c) {
        std::uint64_t x = load64(rank + 8 * c);
        const std::uint64_t t = x ^ (r * ones);
        const std::uint64_t self = ~(((t & low7) + low7) | t) & high;
        x += ((below - x) & high) >> 7;
        x &= ~((self >> 7) * 0xff);
        store64(rank + 8 * c, x);
    }
}

inline LineState
Cache::lookup(sim::Addr addr)
{
    std::uint32_t *word = findWord(tagKey(addr));
    if (!word) {
        ++misses;
        return LineState::Invalid;
    }
    ++hits;
    touch(word);
    return stateOf(*word);
}

inline LineState
Cache::probe(sim::Addr addr) const
{
    const std::uint32_t *word = findWord(tagKey(addr));
    return word ? stateOf(*word) : LineState::Invalid;
}

inline LineState
Cache::invalidate(sim::Addr addr)
{
    std::uint32_t *word = findWord(tagKey(addr));
    if (!word)
        return LineState::Invalid;
    const LineState prev = stateOf(*word);
    setState(*word, LineState::Invalid);
    ++snoopInvalidations;
    return prev;
}

inline bool
Cache::downgrade(sim::Addr addr)
{
    std::uint32_t *word = findWord(tagKey(addr));
    if (!word)
        return false;
    if (stateOf(*word) == LineState::Modified)
        setState(*word, LineState::Shared);
    return true;
}

inline bool
Cache::setModifiedIfPresent(sim::Addr addr)
{
    std::uint32_t *word = findWord(tagKey(addr));
    if (!word)
        return false;
    setState(*word, LineState::Modified);
    return true;
}

} // namespace na::mem

#endif // NETAFFINITY_MEM_CACHE_HH

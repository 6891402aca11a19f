/**
 * @file
 * A function-granularity trace cache (decoded-uop cache) model.
 *
 * The Pentium 4 caches decoded uop traces rather than raw instruction
 * bytes. We approximate it as an LRU cache of *function footprints*:
 * executing a function whose footprint is resident is a hit; otherwise
 * the footprint is (re)built, evicting least-recently-executed functions
 * until it fits. This captures the first-order behaviour the paper's TC
 * miss event measures: code working-set churn from migrations and
 * interrupt intrusions.
 */

#ifndef NETAFFINITY_MEM_TRACE_CACHE_HH
#define NETAFFINITY_MEM_TRACE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/stats/stats.hh"

namespace na::mem {

/**
 * LRU footprint cache for decoded code traces.
 *
 * Function ids are dense, so entries are indexed by id directly and
 * threaded on an index-linked LRU list: hits and misses are O(1) and
 * allocate nothing once the highest id has been seen.
 */
class TraceCache : public stats::Group
{
  public:
    /**
     * @param capacity_bytes total uop storage expressed as equivalent
     *        x86 code bytes (12k uops ~= 48-96 KiB of code; see
     *        cpu::PlatformConfig).
     */
    TraceCache(stats::Group *parent, const std::string &name,
               std::uint64_t capacity_bytes);

    /**
     * Execute function @p func_id whose decoded footprint is
     * @p footprint_bytes.
     * @return number of *misses* incurred: 0 on a resident hit, else the
     *         number of trace-line (64B) builds needed.
     */
    unsigned
    access(std::uint16_t func_id, std::uint32_t footprint_bytes)
    {
        // A repeat of the most recent function is already at the LRU
        // front: the lookup and relink are both no-ops.
        if (mruValid && func_id == mruFunc) {
            ++hits;
            return 0;
        }
        return accessSlow(func_id, footprint_bytes);
    }

    /** @return true if the function's trace is resident. */
    bool
    resident(std::uint16_t func_id) const
    {
        return func_id < entries.size() && entries[func_id].present;
    }

    /** Drop all traces. */
    void flushAll();

    std::uint64_t usedBytes() const { return used; }
    std::uint64_t capacityBytes() const { return capacity; }

    stats::Scalar hits;
    stats::Scalar misses; ///< trace-line builds

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    struct Entry
    {
        std::uint32_t bytes = 0;   ///< footprint while resident
        std::uint32_t prev = none; ///< toward the LRU front (more recent)
        std::uint32_t next = none; ///< toward the LRU back (less recent)
        bool present = false;
    };

    std::uint64_t capacity;
    std::uint64_t used = 0;
    std::uint32_t head = none; ///< most recent
    std::uint32_t tail = none; ///< least recent (next victim)
    std::vector<Entry> entries; ///< indexed by function id

    /**
     * Memo of the most recently executed resident function. A repeat
     * execution is already at the LRU front, so the lookup and relink
     * are no-ops and can be skipped without changing LRU order.
     */
    std::uint16_t mruFunc = 0;
    bool mruValid = false;

    void unlink(std::uint32_t f);
    void pushFront(std::uint32_t f);

    unsigned accessSlow(std::uint16_t func_id,
                        std::uint32_t footprint_bytes);
};

} // namespace na::mem

#endif // NETAFFINITY_MEM_TRACE_CACHE_HH

/**
 * @file
 * A fully-associative, LRU translation lookaside buffer model.
 *
 * Misses represent page walks; the walk penalty is charged by the CPU's
 * timing model, this class only tracks presence. The modeled Xeons use
 * 4 KiB pages.
 */

#ifndef NETAFFINITY_MEM_TLB_HH
#define NETAFFINITY_MEM_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace na::mem {

/**
 * Fully-associative LRU TLB (used for both ITLB and DTLB).
 *
 * Storage is fixed at construction: one slot per entry, threaded on an
 * index-linked LRU list, plus an open-addressed page -> slot index.
 * Hits and misses are O(1) and allocate nothing.
 */
class Tlb : public stats::Group
{
  public:
    static constexpr unsigned pageShift = 12; ///< 4 KiB pages

    /** @param entries capacity; 0 is a configuration error (fatal). */
    Tlb(stats::Group *parent, const std::string &name, unsigned entries);

    /**
     * Translate the page containing @p addr.
     * @return true on hit; false means a page walk occurred (the entry
     *         is installed as a side effect).
     */
    bool
    access(sim::Addr addr)
    {
        // A repeat access to the most recent page is already at the
        // LRU front: the index lookup and relink are both no-ops, so
        // the hit can be counted without touching either.
        const PageNum page = pageOf(addr);
        if (mruValid && page == mruPage) {
            ++hits;
            return true;
        }
        return accessSlow(page);
    }

    /** @return true if the page is currently resident (no LRU update). */
    bool resident(sim::Addr addr) const;

    /** Drop all entries (context switch on a non-global flush, tests). */
    void flushAll();

    unsigned capacity() const { return numEntries; }
    std::uint64_t size() const { return used; }

    stats::Scalar hits;
    stats::Scalar walks;

  private:
    using PageNum = std::uint64_t;
    using SlotIdx = std::uint32_t;
    static constexpr SlotIdx none = ~SlotIdx{0};

    struct Slot
    {
        PageNum page = 0;
        SlotIdx prev = none; ///< toward the LRU front (more recent)
        SlotIdx next = none; ///< toward the LRU back (less recent)
    };

    unsigned numEntries;
    unsigned used = 0;      ///< slots in use; slots [0, used) are live
    SlotIdx head = none;    ///< most recent
    SlotIdx tail = none;    ///< least recent (next victim)
    std::vector<Slot> slots;

    /**
     * Open-addressed (linear probing) page -> slot index; each bucket
     * holds slot + 1, 0 == empty. At least twice the capacity, a power
     * of two; deletion shifts followers back, so no tombstones.
     */
    std::vector<SlotIdx> index;
    unsigned indexShift = 0; ///< 64 - log2(index.size())

    /**
     * Memo of the most recent translation. A repeat access to the same
     * page is already at the LRU front, so the index lookup and relink
     * are both no-ops and can be skipped without changing LRU order.
     */
    PageNum mruPage = 0;
    bool mruValid = false;

    static PageNum pageOf(sim::Addr addr) { return addr >> pageShift; }

    std::size_t
    bucketOf(PageNum page) const
    {
        return static_cast<std::size_t>(
            (page * 0x9e3779b97f4a7c15ULL) >> indexShift);
    }

    /** @return index bucket holding @p page, or the empty bucket. */
    std::size_t findBucket(PageNum page) const;
    void eraseBucket(std::size_t bucket);
    void unlink(SlotIdx s);
    void pushFront(SlotIdx s);

    bool accessSlow(PageNum page);
};

} // namespace na::mem

#endif // NETAFFINITY_MEM_TLB_HH

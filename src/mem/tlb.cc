#include "src/mem/tlb.hh"

#include <algorithm>
#include <bit>

#include "src/sim/logging.hh"

namespace na::mem {

Tlb::Tlb(stats::Group *parent, const std::string &name, unsigned entries)
    : stats::Group(parent, name),
      hits(this, "hits", "TLB hits"),
      walks(this, "walks", "page walks (misses)"),
      numEntries(entries)
{
    if (entries == 0)
        sim::fatal("TLB %s: capacity must be at least one entry",
                   name.c_str());
    slots.resize(entries);
    const std::size_t buckets =
        std::bit_ceil(static_cast<std::size_t>(entries) * 2);
    index.assign(buckets, 0);
    indexShift = 64 - static_cast<unsigned>(std::countr_zero(buckets));
}

std::size_t
Tlb::findBucket(PageNum page) const
{
    const std::size_t mask = index.size() - 1;
    std::size_t b = bucketOf(page);
    while (index[b] != 0 && slots[index[b] - 1].page != page)
        b = (b + 1) & mask;
    return b;
}

void
Tlb::eraseBucket(std::size_t bucket)
{
    // Backward-shift deletion: move each follower of the probe run into
    // the hole unless its home bucket lies cyclically in (hole, at].
    const std::size_t mask = index.size() - 1;
    std::size_t hole = bucket;
    for (std::size_t at = (hole + 1) & mask; index[at] != 0;
         at = (at + 1) & mask) {
        const std::size_t home = bucketOf(slots[index[at] - 1].page);
        if (((at - home) & mask) >= ((at - hole) & mask)) {
            index[hole] = index[at];
            hole = at;
        }
    }
    index[hole] = 0;
}

void
Tlb::unlink(SlotIdx s)
{
    Slot &slot = slots[s];
    if (slot.prev != none)
        slots[slot.prev].next = slot.next;
    else
        head = slot.next;
    if (slot.next != none)
        slots[slot.next].prev = slot.prev;
    else
        tail = slot.prev;
}

void
Tlb::pushFront(SlotIdx s)
{
    slots[s].prev = none;
    slots[s].next = head;
    if (head != none)
        slots[head].prev = s;
    else
        tail = s;
    head = s;
}

bool
Tlb::accessSlow(PageNum page)
{
    mruPage = page;
    mruValid = true;
    const std::size_t b = findBucket(page);
    if (index[b] != 0) {
        ++hits;
        const SlotIdx s = index[b] - 1;
        if (s != head) {
            unlink(s);
            pushFront(s);
        }
        return true;
    }
    ++walks;
    SlotIdx s;
    if (used < numEntries) {
        s = used++;
    } else {
        // Full: recycle the least recently used slot.
        s = tail;
        unlink(s);
        eraseBucket(findBucket(slots[s].page));
    }
    slots[s].page = page;
    pushFront(s);
    // The erase may have shifted the run the new page probes into.
    index[findBucket(page)] = s + 1;
    return false;
}

bool
Tlb::resident(sim::Addr addr) const
{
    return index[findBucket(pageOf(addr))] != 0;
}

void
Tlb::flushAll()
{
    std::fill(index.begin(), index.end(), 0);
    used = 0;
    head = none;
    tail = none;
    mruValid = false;
}

} // namespace na::mem

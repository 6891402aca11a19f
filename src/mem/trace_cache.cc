#include "src/mem/trace_cache.hh"

#include "src/sim/logging.hh"

namespace na::mem {

TraceCache::TraceCache(stats::Group *parent, const std::string &name,
                       std::uint64_t capacity_bytes)
    : stats::Group(parent, name),
      hits(this, "hits", "trace cache hits"),
      misses(this, "misses", "trace lines rebuilt"),
      capacity(capacity_bytes)
{
}

void
TraceCache::unlink(std::uint32_t f)
{
    Entry &e = entries[f];
    if (e.prev != none)
        entries[e.prev].next = e.next;
    else
        head = e.next;
    if (e.next != none)
        entries[e.next].prev = e.prev;
    else
        tail = e.prev;
}

void
TraceCache::pushFront(std::uint32_t f)
{
    entries[f].prev = none;
    entries[f].next = head;
    if (head != none)
        entries[head].prev = f;
    else
        tail = f;
    head = f;
}

unsigned
TraceCache::accessSlow(std::uint16_t func_id,
                       std::uint32_t footprint_bytes)
{
    if (resident(func_id)) {
        ++hits;
        if (func_id != head) {
            unlink(func_id);
            pushFront(func_id);
        }
        mruFunc = func_id;
        mruValid = true;
        return 0;
    }

    const unsigned lines =
        static_cast<unsigned>((footprint_bytes + 63) / 64);
    misses += lines;
    if (footprint_bytes > capacity) {
        // A single function larger than the whole cache: permanent
        // streaming misses, never resident.
        return lines;
    }

    while (used + footprint_bytes > capacity && tail != none) {
        Entry &victim = entries[tail];
        used -= victim.bytes;
        victim.present = false;
        unlink(tail);
    }

    if (func_id >= entries.size())
        entries.resize(static_cast<std::size_t>(func_id) + 1);
    entries[func_id].bytes = footprint_bytes;
    entries[func_id].present = true;
    pushFront(func_id);
    used += footprint_bytes;
    mruFunc = func_id;
    mruValid = true;
    return lines;
}

void
TraceCache::flushAll()
{
    for (Entry &e : entries)
        e.present = false;
    head = none;
    tail = none;
    used = 0;
    mruValid = false;
}

} // namespace na::mem

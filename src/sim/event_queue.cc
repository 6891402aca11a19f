#include "src/sim/event_queue.hh"

#include <algorithm>
#include <stdexcept>

#include "src/sim/logging.hh"
#include "src/sim/trace.hh"

namespace na::sim {

namespace {

/** Interned fallback so unnamed events still panic readably. */
const std::string anonymousEventName = "event";

} // namespace

Event::Event(std::string name, int priority)
    : _name(std::move(name)), _priority(priority)
{
}

Event::~Event()
{
    // Owners must deschedule before destruction; we cannot reach back
    // into the queue from here (we do not know which queue), so just
    // flag the bug.
    if (_scheduled)
        panic("event '%s' destroyed while scheduled", name().c_str());
}

const std::string &
Event::name() const
{
    return _name.empty() ? anonymousEventName : _name;
}

LambdaEvent::LambdaEvent(std::string name, std::function<void()> fn,
                         int priority)
    : Event(std::move(name), priority), fn(std::move(fn))
{
}

void
LambdaEvent::process()
{
    fn();
}

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Unschedule live events (parking queue-owned ones in the free
    // list) and drain the free list. Stale entries may point at events
    // their owners already destroyed — never dereference those.
    while (!heap.empty()) {
        Entry e = popTop();
        if (live(e)) {
            e.ev->_scheduled = false;
            e.ev->_when = maxTick;
            releaseRef(e.ev);
        }
    }
    for (LambdaEvent *ev : lambdaPool)
        delete ev;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    if (ev->_scheduled)
        panic("event '%s' scheduled twice", ev->name().c_str());
    if (when < curTick)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name().c_str(), (unsigned long long)when,
              (unsigned long long)curTick);
    ev->_scheduled = true;
    ev->_when = when;
    ev->_seq = nextSeq++;
    ++ev->_heapRefs;
    heap.push_back(Entry{when, ev->priority(), ev->_seq, ev});
    std::push_heap(heap.begin(), heap.end(), EntryCompare{});
}

void
EventQueue::deschedule(Event *ev)
{
    if (!ev->_scheduled)
        return;
    ev->_scheduled = false;
    ev->_when = maxTick;
    staleSeqs.insert(ev->_seq);
    ++numStale;
    // The heap entry stays and is skipped lazily on pop (its seq is in
    // staleSeqs). The heap ref is dropped NOW, while the event is
    // certainly alive — after this call the owner may destroy the
    // event even though a stale entry still names its seq. Once stale
    // entries outnumber live ones, rebuild the heap without them so
    // churny callers (NIC moderation, TCP timers) cannot grow it
    // without bound.
    releaseRef(ev);
    if (heap.size() >= compactMinEntries && numStale * 2 > heap.size())
        compact();
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (ev->_scheduled) {
        // Like deschedule(), but dropping the heap ref by hand: the
        // releaseRef() path would recycle a queue-owned one-shot into
        // the free list, and this event is about to be live again.
        ev->_scheduled = false;
        ev->_when = maxTick;
        staleSeqs.insert(ev->_seq);
        ++numStale;
        if (ev->_heapRefs == 0)
            panic("event '%s' heap refcount underflow",
                  ev->name().c_str());
        --ev->_heapRefs;
        if (heap.size() >= compactMinEntries &&
            numStale * 2 > heap.size())
            compact();
    }
    schedule(ev, when);
}

Event *
EventQueue::scheduleLambda(Tick when, std::string name,
                           std::function<void()> fn, int priority)
{
    LambdaEvent *ev;
    if (!lambdaPool.empty()) {
        ev = lambdaPool.back();
        lambdaPool.pop_back();
        ev->fn = std::move(fn);
        ev->_priority = priority;
    } else {
        ev = new LambdaEvent({}, std::move(fn), priority);
        ev->_queueOwned = true;
    }
    // Names exist for tracing and panic messages; only pay for the
    // string while event tracing is on.
    if (traceEnabled(TraceFlag::Event))
        ev->setName(std::move(name));
    schedule(ev, when);
    return ev;
}

EventQueue::Entry
EventQueue::popTop()
{
    std::pop_heap(heap.begin(), heap.end(), EntryCompare{});
    Entry e = heap.back();
    heap.pop_back();
    return e;
}

void
EventQueue::releaseRef(Event *ev)
{
    if (ev->_heapRefs == 0)
        panic("event '%s' heap refcount underflow", ev->name().c_str());
    --ev->_heapRefs;
    if (ev->_queueOwned && !ev->_scheduled && ev->_heapRefs == 0) {
        // One-shot fired (or was descheduled and fully drained):
        // release the captured state now, reuse the object later.
        auto *le = static_cast<LambdaEvent *>(ev);
        le->fn = nullptr;
        le->setName({});
        lambdaPool.push_back(le);
    }
}

void
EventQueue::compact()
{
    // Stale entries' refs were dropped at deschedule time; just drop
    // the entries themselves (without reading their Event pointers).
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [this](const Entry &e) {
                                  return !live(e);
                              }),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), EntryCompare{});
    staleSeqs.clear();
    numStale = 0;
}

bool
EventQueue::runOne()
{
    while (!heap.empty()) {
        Entry e = popTop();
        Event *ev = e.ev;
        if (!live(e)) {
            // Stale entry from a deschedule/reschedule; its event may
            // already be destroyed, so only the seq record is touched.
            staleSeqs.erase(e.seq);
            if (numStale > 0)
                --numStale;
            continue;
        }
        if (e.when < curTick)
            panic("event queue time went backwards");
        curTick = e.when;
        ev->_scheduled = false;
        ev->_when = maxTick;
        if (stallThreshold) {
            if (e.when != stallTick) {
                stallTick = e.when;
                stallCount = 0;
            }
            if (++stallCount > stallThreshold) {
                // Livelock: time is not advancing. The event has
                // already been unhooked from the heap (scheduled flag
                // cleared, ref dropped) so its owner can destroy it
                // safely while this exception unwinds the run.
                const std::string culprit = ev->name();
                releaseRef(ev);
                stallCount = 0;
                throw std::runtime_error(format(
                    "event queue stalled: %llu events at tick %llu "
                    "without progress (last: '%s')",
                    (unsigned long long)stallThreshold,
                    (unsigned long long)e.when, culprit.c_str()));
            }
        }
        ev->process();
        ++numProcessed;
        releaseRef(ev);
        return true;
    }
    return false;
}

void
EventQueue::runUntil(Tick until)
{
    while (!heap.empty()) {
        const Entry &top = heap.front();
        if (!live(top)) {
            Entry e = popTop();
            staleSeqs.erase(e.seq);
            if (numStale > 0)
                --numStale;
            continue;
        }
        if (top.when > until)
            break;
        runOne();
    }
    if (curTick < until)
        curTick = until;
}

} // namespace na::sim

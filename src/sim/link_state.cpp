#include "sim/link_state.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace syscomm::sim {

LinkState::LinkState(LinkIndex index, Span<HwQueue> queues,
                     Span<Crossing> crossing_storage)
    : index_(index),
      queues_(queues),
      crossings_(crossing_storage.data()),
      max_crossings_(static_cast<int>(crossing_storage.size()))
{
    assert(!queues_.empty());
}

void
LinkState::resetRun()
{
    for (HwQueue& q : queues_)
        q.reset();
    for (int i = 0; i < num_crossings_; ++i) {
        Crossing& c = crossings_[i];
        c.phase = CrossingPhase::kIdle;
        c.queueId = -1;
        c.requestedAt = -1;
        c.assignedAt = -1;
    }
}

int
LinkState::addCrossing(MessageId msg, LinkDir dir, int hop_index, int words)
{
    // Unconditional (not assert): the crossing span is a fixed arena
    // slice — where the owning vector this replaced would have grown,
    // writing past capacity now lands in the *next link's* pool slots.
    // Registration runs once at session build, so the branch is free,
    // and silent cross-link corruption in NDEBUG builds is not.
    if (num_crossings_ >= max_crossings_) {
        std::fprintf(stderr,
                     "LinkState::addCrossing: link %d crossing span "
                     "full (%d) — arena sized from a different route "
                     "set?\n",
                     static_cast<int>(index_), max_crossings_);
        std::abort();
    }
    Crossing c;
    c.msg = msg;
    c.dir = dir;
    c.hopIndex = hop_index;
    c.words = words;
    crossings_[num_crossings_] = c;
    return num_crossings_++;
}

int
LinkState::numFreeQueues() const
{
    int free = 0;
    for (const HwQueue& q : queues()) {
        if (q.isFree())
            ++free;
    }
    return free;
}

int
LinkState::findFreeQueue() const
{
    for (const HwQueue& q : queues()) {
        if (q.isFree())
            return q.id();
    }
    return -1;
}

void
LinkState::request(int slot, Cycle now)
{
    Crossing& c = crossings_[slot];
    assert(slot < num_crossings_ && c.phase == CrossingPhase::kIdle);
    c.phase = CrossingPhase::kRequested;
    c.requestedAt = now;
}

void
LinkState::assign(int slot, int queue_id, Cycle now)
{
    Crossing& c = crossings_[slot];
    assert(slot < num_crossings_ &&
           (c.phase == CrossingPhase::kIdle ||
            c.phase == CrossingPhase::kRequested));
    c.phase = CrossingPhase::kAssigned;
    c.queueId = queue_id;
    c.assignedAt = now;
    HwQueue& q = queues_[static_cast<std::size_t>(queue_id)];
    q.assign(c.msg, c.dir, c.words, now, c.finalHop);
    q.setSlot(slot);
}

void
LinkState::finish(int slot, Cycle now)
{
    Crossing& c = crossings_[slot];
    assert(slot < num_crossings_ && c.phase == CrossingPhase::kAssigned);
    queues_[static_cast<std::size_t>(c.queueId)].release(now);
    c.phase = CrossingPhase::kDone;
    c.queueId = -1;
}

} // namespace syscomm::sim

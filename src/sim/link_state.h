#pragma once

/**
 * @file
 * Run-time state of one link: its pool of hardware queues and the
 * request/assignment lifecycle of every message crossing it.
 *
 * A LinkState owns nothing. Its queues and crossing records are spans
 * over SimArena pools (sim/arena.h) shared by every link of the
 * machine, so the per-link state of a 100k-link array is two
 * contiguous allocations instead of hundreds of thousands — the layout
 * the dense-active scaling curve needs. The spans are fixed at arena
 * build time: the crossing span is sized to the number of routes the
 * session registers (addCrossing fills it, up to capacity), and the
 * queue span to MachineSpec::queuesPerLink.
 *
 * A crossing is addressed by its *slot*: its registration index on the
 * link. Sessions register in (message, hop) order, so the slot of every
 * hop is known at compile time (CompiledProgram::hopSlot) and an
 * assigned queue records its crossing's slot (HwQueue::slot) — nothing
 * on the run path searches for a message's crossing.
 */

#include "core/types.h"
#include "sim/queue.h"
#include "sim/span.h"

namespace syscomm::sim {

/** Lifecycle of a message on one link. */
enum class CrossingPhase : std::uint8_t
{
    kIdle = 0,  ///< Has not yet asked for a queue here.
    kRequested, ///< Header has arrived (or sender is ready); waiting.
    kAssigned,  ///< Holds a queue.
    kDone,      ///< All words passed; queue released.
};

/** One message's relationship with one link. */
struct Crossing
{
    MessageId msg = kInvalidMessage;
    LinkDir dir = LinkDir::kForward;
    /** Which hop of the message's route this link is (0-based). */
    int hopIndex = 0;
    /** Total words of the message. */
    int words = 0;
    /**
     * Is this the route's last hop (the receiver pops here)? Static
     * route information stamped by the session at compile time and
     * copied into the queue at assignment, so the kernels' hot hooks
     * never need a crossing lookup to answer it.
     */
    bool finalHop = false;

    CrossingPhase phase = CrossingPhase::kIdle;
    int queueId = -1;
    Cycle requestedAt = -1;
    Cycle assignedAt = -1;
};

// Pinned hot-state size (LP64); the checkpoint stream serializes
// crossings field by field, so packing never changes its bytes.
static_assert(sizeof(Crossing) == 40, "Crossing layout changed");

/** Queue pool + crossings of one link (views into the SimArena). */
class LinkState
{
  public:
    /**
     * @p queues / @p crossing_storage are arena slices that must
     * outlive the link; crossing storage is capacity — crossings()
     * reports only the registered prefix. SimArena is the only
     * production caller.
     */
    LinkState(LinkIndex index, Span<HwQueue> queues,
              Span<Crossing> crossing_storage);

    LinkIndex index() const { return index_; }

    /**
     * Reset every queue and the dynamic half of every crossing to the
     * start-of-run state, in place. The static crossing registration
     * (message, direction, hop index, word count) survives — that is
     * the compile-once part a SimSession reuses across runs.
     */
    void resetRun();

    /**
     * Register a message that will cross this link (machine setup);
     * returns its slot (the registration index).
     */
    int addCrossing(MessageId msg, LinkDir dir, int hop_index, int words);

    Span<Crossing> crossings()
    {
        return {crossings_, static_cast<std::size_t>(num_crossings_)};
    }
    Span<const Crossing> crossings() const
    {
        return {crossings_, static_cast<std::size_t>(num_crossings_)};
    }

    Span<HwQueue> queues() { return queues_; }
    Span<const HwQueue> queues() const
    {
        return {queues_.data(), queues_.size()};
    }
    HwQueue& queue(int id) { return queues_[static_cast<std::size_t>(id)]; }

    int numFreeQueues() const;
    /** Lowest-id free queue, or -1. */
    int findFreeQueue() const;

    /** Mark the crossing in @p slot as waiting for a queue here. */
    void request(int slot, Cycle now);

    /** Give the crossing in @p slot the queue @p queue_id. */
    void assign(int slot, int queue_id, Cycle now);

    /**
     * Pop bookkeeping: called after the last word of the crossing in
     * @p slot left its queue; releases the queue back to the pool.
     */
    void finish(int slot, Cycle now);

  private:
    LinkIndex index_;
    Span<HwQueue> queues_;
    /**
     * Crossings in registration (slot) order, the policies' scan
     * order: an arena slice of capacity max_crossings_, filled to
     * num_crossings_.
     */
    Crossing* crossings_;
    int num_crossings_ = 0;
    int max_crossings_;
};

} // namespace syscomm::sim
